package fleet

import (
	"fmt"

	"sleepscale/internal/colstore"
	"sleepscale/internal/core"
)

// EpochLogSchema returns the column-file schema fleet per-epoch logs use:
// core's epoch-log columns followed by the fleet dimensions, one row per
// epoch.
func EpochLogSchema() colstore.Schema {
	s := core.EpochLogSchema()
	s.Kind = colstore.KindFleetEpochs
	s.Cols = append(s.Cols, "active", "parked", "shallow", "unparked")
	return s
}

// WriteEpochLog appends a coordinated run's per-epoch records — the core
// epoch records zipped with their fleet rollups — to the column file at
// path, creating it if absent. Append-only, like core.WriteEpochLog, so a
// long-lived coordinator keeps one growing log.
func WriteEpochLog(path string, rep *Report) error {
	if len(rep.Epochs) != len(rep.FleetEpochs) {
		return fmt.Errorf("fleet: %d epoch records but %d fleet records", len(rep.Epochs), len(rep.FleetEpochs))
	}
	s := EpochLogSchema()
	w, err := colstore.Append(path, s)
	if err != nil {
		return err
	}
	row := make([]float64, len(s.Cols))
	fleetCols := row[len(core.EpochLogSchema().Cols):]
	for i := range rep.Epochs {
		core.EpochRow(row, w.Writer, &rep.Epochs[i])
		fe := &rep.FleetEpochs[i]
		fleetCols[0] = float64(fe.Active)
		fleetCols[1] = float64(fe.Parked)
		fleetCols[2] = float64(fe.Shallow)
		fleetCols[3] = float64(fe.Unparked)
		if err := w.Append(row); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}
