package policy_test

import (
	"fmt"

	"sleepscale/internal/policy"
	"sleepscale/internal/power"
)

// ExampleSequence builds the §4.2 lesson-5 style multi-state walk.
func ExampleSequence() {
	plan := policy.Sequence("",
		policy.PlanPhase{State: power.OperatingIdle},
		policy.PlanPhase{State: power.DeeperSleep, Enter: 2.5},
	)
	fmt.Println(plan.Name)
	// Output:
	// C0(i)S0(i)→C6S3
}
