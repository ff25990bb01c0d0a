package experiments

import (
	"strings"
	"testing"
)

func TestFig2MatchesPaper(t *testing.T) {
	r := Fig2()
	if r.Rates["A"] != 4 || r.Rates["B"] != 12 {
		t.Fatalf("rates = %v, want A:4 B:12", r.Rates)
	}
	if r.BusRate != 16 {
		t.Fatalf("bus rate = %g, want 16", r.BusRate)
	}
	if !r.MakespanPreserved {
		t.Fatal("makespan not preserved at the Eq. 1 rate")
	}
	// B2 is delayed from t=1 to t=1.5 (the figure's key detail).
	for _, s := range r.Schedule {
		if s.Label == "B2" && s.Start != 1.5 {
			t.Fatalf("B2 start = %v, want 1.5", s.Start)
		}
	}
	if !strings.Contains(r.String(), "16 bits/second") {
		t.Error("rendering missing bus rate")
	}
}

func TestFig7Shape(t *testing.T) {
	r := Fig7()
	if len(r.Points) != 24 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// Monotone non-increasing in width for both processes.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].EvalR3 > r.Points[i-1].EvalR3 {
			t.Fatalf("EVAL_R3 increased at width %d", r.Points[i].Width)
		}
		if r.Points[i].ConvR2 > r.Points[i-1].ConvR2 {
			t.Fatalf("CONV_R2 increased at width %d", r.Points[i].Width)
		}
	}
	// Plateau: widths 23 and 24 identical (no further parallelization
	// of a 23-bit message).
	if r.Points[22].EvalR3 != r.Points[23].EvalR3 {
		t.Error("EVAL_R3 did not plateau at 23 pins")
	}
	if r.Points[22].ConvR2 != r.Points[23].ConvR2 {
		t.Error("CONV_R2 did not plateau at 23 pins")
	}
	// The paper's worked constraint: CONV_R2 <= 2000 clocks only for
	// widths > 4.
	if r.MinWidthMeetingConstraint != 5 {
		t.Errorf("constraint first met at width %d, want 5 (paper: widths > 4)",
			r.MinWidthMeetingConstraint)
	}
	// EVAL_R3 runs longer than CONV_R2 across the sweep (its per-point
	// computation is heavier), as in the paper's plot.
	for _, p := range r.Points {
		if p.EvalR3 <= p.ConvR2 {
			t.Fatalf("EVAL_R3 (%d) <= CONV_R2 (%d) at width %d", p.EvalR3, p.ConvR2, p.Width)
		}
	}
}

func TestFig7SimCheckShape(t *testing.T) {
	// Simulated FLC completion times with the default cost model, as
	// the goroutine-per-process kernel measured them: monotone
	// non-increasing in the width, flat past 23 pins.
	want := []int64{
		79285, 59573, 53301, 48821, 47925, 46133, 45237, // widths 1-7
		43445, 43445, 43445, 43445, // 8-11
		42549, 42549, 42549, 42549, // 12-15
		41653, 41653, 41653, 41653, 41653, 41653, 41653, // 16-22
		40757, 40757, // 23-24
	}
	var widths []int
	for w := 1; w <= len(want); w++ {
		widths = append(widths, w)
	}
	points, err := Fig7SimCheck(widths)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(want) {
		t.Fatalf("%d points, want %d", len(points), len(want))
	}
	for i, p := range points {
		if p.Width != widths[i] || p.Clocks != want[i] {
			t.Errorf("width %d: simulated %d clocks, want %d", p.Width, p.Clocks, want[i])
		}
	}
}

func TestFig8MatchesPaper(t *testing.T) {
	r, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		design string
		width  int
		rate   float64
		redLo  float64
		redHi  float64
	}{
		{"A", 20, 10, 55, 58}, // paper: 56 %
		{"B", 18, 9, 60, 62},  // paper: 61 %
		{"C", 16, 8, 64, 67},  // paper: 66 %
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for i, w := range want {
		row := r.Rows[i]
		if row.Design != w.design || row.Width != w.width || row.BusRate != w.rate {
			t.Errorf("design %s: width %d rate %g, want %d/%g",
				row.Design, row.Width, row.BusRate, w.width, w.rate)
		}
		if row.SeparateLines != 46 {
			t.Errorf("design %s: separate lines %d, want 46", row.Design, row.SeparateLines)
		}
		if row.ReductionPct < w.redLo || row.ReductionPct > w.redHi {
			t.Errorf("design %s: reduction %.1f%%, want within [%g, %g]",
				row.Design, row.ReductionPct, w.redLo, w.redHi)
		}
	}
	if !strings.Contains(r.String(), "Design A") {
		t.Error("rendering broken")
	}
}
