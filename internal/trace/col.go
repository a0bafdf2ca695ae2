package trace

import (
	"fmt"
	"os"

	"sleepscale/internal/colstore"
)

// Column-file layout for utilization traces: kind KindTrace, columns
// "slot" and "utilization", the trace name as dictionary entry 0.

// ColSchema returns the column-file schema a trace of this slot length
// serializes under.
func ColSchema(slotSeconds float64) colstore.Schema {
	return colstore.Schema{
		Kind:        colstore.KindTrace,
		SlotSeconds: slotSeconds,
		Cols:        []string{"slot", "utilization"},
	}
}

// WriteCol writes the trace as a column file at path — the binary
// counterpart of WriteCSV.
func (t *Trace) WriteCol(path string) error {
	if err := t.Validate(); err != nil {
		return err
	}
	w, err := colstore.Create(path, ColSchema(t.SlotSeconds))
	if err != nil {
		return err
	}
	if t.Name != "" {
		w.DictID(t.Name)
	}
	row := make([]float64, 2)
	for i, u := range t.Utilization {
		row[0], row[1] = float64(i), u
		if err := w.Append(row); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// ReadCol materializes a KindTrace column file — the binary counterpart of
// ReadCSV. The trace name is restored from the dictionary when present.
func ReadCol(path string) (*Trace, error) {
	r, err := colstore.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return FromColReader(r)
}

// ReadFile loads the trace file at path in either format: a column file,
// recognized by its magic, or CSV.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if colstore.HasMagic(f) {
		return ReadCol(path)
	}
	return ReadCSV(f)
}

// FromColReader materializes the trace held by an open column reader.
func FromColReader(r *colstore.Reader) (*Trace, error) {
	s := r.Schema()
	if s.Kind != colstore.KindTrace {
		return nil, fmt.Errorf("trace: column file kind %d is not a trace", s.Kind)
	}
	col := s.ColIndex("utilization")
	if col < 0 {
		return nil, fmt.Errorf("trace: column file has no utilization column (cols %v)", s.Cols)
	}
	if r.Rows() == 0 {
		return nil, fmt.Errorf("trace: empty column file")
	}
	t := &Trace{Name: "col", SlotSeconds: s.SlotSeconds,
		Utilization: make([]float64, 0, r.Rows())}
	if len(s.Dict) > 0 {
		t.Name = s.Dict[0]
	}
	for b := 0; b < r.NumBlocks(); b++ {
		v, err := r.Col(b, col, nil)
		if err != nil {
			return nil, err
		}
		t.Utilization = append(t.Utilization, v...)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
