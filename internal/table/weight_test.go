package table

import (
	"math"
	"strings"
	"testing"

	"repro/internal/schema"
)

// TestWeightMustBePositiveFinite: Insert, AppendRows and IngestCSV all
// refuse a weight that is not positive and finite — NaN and +Inf pass a
// plain w > 0 test, and strconv.ParseFloat accepts "NaN" and "Inf" — with
// one message, the same from IngestCSV as from the seed reader.
func TestWeightMustBePositiveFinite(t *testing.T) {
	sc := schema.MustNew("R", "A")
	const msg = "not a positive finite number"
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -1} {
		tab := New(sc)
		if err := tab.Insert(1, Tuple{"x"}, w); err == nil || !strings.Contains(err.Error(), msg) {
			t.Errorf("Insert with weight %v: %v, want %q", w, err, msg)
		}
		if _, err := tab.AppendRows([]Tuple{{"x"}}, []float64{w}); err == nil || !strings.Contains(err.Error(), msg) {
			t.Errorf("AppendRows with weight %v: %v, want %q", w, err, msg)
		}
		if tab.Len() != 0 {
			t.Errorf("weight %v: %d rows stored after a refused insert", w, tab.Len())
		}
	}
	for _, w := range []float64{math.SmallestNonzeroFloat64, 1, math.MaxFloat64} {
		if err := New(sc).Insert(1, Tuple{"x"}, w); err != nil {
			t.Errorf("Insert with weight %v: %v", w, err)
		}
	}

	for _, ws := range []string{"NaN", "nan", "Inf", "+Inf", "inf", "Infinity", "-Inf", "0", "-0", "-1"} {
		in := "id,A,w\n1,x,1\n2,y," + ws + "\n"
		_, werr := ReadCSVBuffered(strings.NewReader(in), "R")
		_, gerr := IngestCSV(strings.NewReader(in), "R")
		if werr == nil || gerr == nil || gerr.Error() != werr.Error() || !strings.Contains(gerr.Error(), msg) {
			t.Errorf("weight %q: buffered=%v ingest=%v, want the same %q error from both", ws, werr, gerr, msg)
		}
	}
}
