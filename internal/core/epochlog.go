package core

import (
	"sleepscale/internal/colstore"
)

// EpochLogSchema returns the column-file schema per-epoch run logs use: one
// row per decision epoch. The "plan" column stores dictionary ids of sleep
// plan names (Schema.Dict resolves them); everything else is the
// EpochRecord scalar of the same name.
func EpochLogSchema() colstore.Schema {
	return colstore.Schema{
		Kind: colstore.KindEpochs,
		Cols: []string{
			"epoch", "predicted", "realized", "frequency", "plan",
			"jobs", "mean_delay", "p95_delay", "energy", "busy", "wake", "idle",
		},
	}
}

// EpochRow fills row's first len(EpochLogSchema().Cols) columns from rec,
// interning its plan name in w's dictionary. Logs that extend the schema
// (the fleet's) fill their own columns after these.
func EpochRow(row []float64, w *colstore.Writer, rec *EpochRecord) {
	row[0] = float64(rec.Index)
	row[1] = rec.Predicted
	row[2] = rec.Realized
	row[3] = rec.Policy.Frequency
	row[4] = w.DictID(rec.Policy.Plan.Name)
	row[5] = float64(rec.Jobs)
	row[6] = rec.MeanDelay
	row[7] = rec.P95Delay
	row[8] = rec.Energy
	row[9] = rec.BusyTime
	row[10] = rec.WakeTime
	row[11] = rec.IdleTime
}

// WriteEpochLog appends a run's per-epoch records to the column file at
// path, creating it if absent — append-only, so a daemon restarting across
// runs keeps one growing log (epoch indices restart per run; group or
// filter on them per ingest if that matters). Aggregations over the result
// are cmd/colq's job: per-epoch mean energy, plan residency, delay tails.
func WriteEpochLog(path string, epochs []EpochRecord) error {
	s := EpochLogSchema()
	w, err := colstore.Append(path, s)
	if err != nil {
		return err
	}
	row := make([]float64, len(s.Cols))
	for i := range epochs {
		EpochRow(row, w.Writer, &epochs[i])
		if err := w.Append(row); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}
