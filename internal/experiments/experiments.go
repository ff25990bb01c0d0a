// Package experiments regenerates the evaluation artifacts of Narayan &
// Gajski (DAC'94): the channel-merging illustration (Fig. 2), the
// performance-versus-buswidth sweep for the FLC's EVAL_R3 and CONV_R2
// processes (Fig. 7), and the three constrained bus designs with their
// selected widths, rates and interconnect reductions (Fig. 8).
//
// Each experiment returns a structured result plus a text rendering that
// matches the paper's presentation; cmd/experiments prints them and
// bench_test.go regenerates them under the benchmark harness.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/busgen"
	"repro/internal/estimate"
	"repro/internal/explore"
	"repro/internal/flc"
	"repro/internal/protogen"
	"repro/internal/sim"
	"repro/internal/spec"
)

// ---- Fig. 2: merging channels A and B into bus AB ----

// Fig2Result captures the channel-merging arithmetic of Fig. 2.
type Fig2Result struct {
	// Window is the observation interval in seconds (4 s in the paper).
	Window float64
	// Rates holds each channel's average rate in bits/second
	// (A: 4 b/s, B: 12 b/s).
	Rates map[string]float64
	// BusRate is the required merged rate (16 b/s, Eq. 1).
	BusRate float64
	// Schedule is the serialized bus schedule; item B2 is delayed from
	// t=1 to t=1.5 by the bus conflict, as the figure shows.
	Schedule []busgen.ScheduledTransfer
	// MakespanPreserved reports that all transfers still complete
	// within the window.
	MakespanPreserved bool
}

// Fig2 reproduces the channel-merging example.
func Fig2() *Fig2Result {
	transfers := []busgen.Transfer{
		{Channel: "A", Label: "A1", Time: 0, Bits: 8},
		{Channel: "A", Label: "A2", Time: 2, Bits: 8},
		{Channel: "B", Label: "B1", Time: 0, Bits: 16},
		{Channel: "B", Label: "B2", Time: 1, Bits: 16},
		{Channel: "B", Label: "B3", Time: 3, Bits: 16},
	}
	const window = 4.0
	rate := busgen.RequiredBusRate(transfers, window)
	sched := busgen.MergeSchedule(transfers, rate)
	return &Fig2Result{
		Window:            window,
		Rates:             busgen.ChannelRates(transfers, window),
		BusRate:           rate,
		Schedule:          sched,
		MakespanPreserved: busgen.MakespanPreserved(sched, window),
	}
}

func (r *Fig2Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 2 — merging channels A and B into bus AB\n\n")
	names := make([]string, 0, len(r.Rates))
	for n := range r.Rates {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  AveRate(%s) = %g bits/second\n", n, r.Rates[n])
	}
	fmt.Fprintf(&b, "  required BusRate(AB) >= %g bits/second (Eq. 1)\n\n", r.BusRate)
	b.WriteString(busgen.FormatSchedule(r.Schedule))
	fmt.Fprintf(&b, "\n  makespan preserved within %.0f s window: %t\n", r.Window, r.MakespanPreserved)
	return b.String()
}

// ---- Fig. 7: FLC performance vs bus width ----

// Fig7Point is one sweep sample.
type Fig7Point struct {
	Width  int
	EvalR3 int64 // execution time in clocks
	ConvR2 int64
}

// Fig7Result is the performance-versus-buswidth sweep.
type Fig7Result struct {
	Points []Fig7Point
	// PlateauWidth is the width beyond which no improvement is
	// possible (23 pins: 16 data + 7 address).
	PlateauWidth int
	// ConstraintClocks is the example constraint the paper discusses
	// (2000 clocks on CONV_R2).
	ConstraintClocks int64
	// MinWidthMeetingConstraint is the narrowest width at which
	// CONV_R2 meets the constraint (the paper: widths greater than 4).
	MinWidthMeetingConstraint int
}

// Fig7 sweeps bus widths 1..24 and estimates the execution time of
// processes EVAL_R3 and CONV_R2 with their channels implemented on a
// full-handshake bus of each width. The sweep runs on the exploration
// engine (memoized estimator, parallel candidate evaluation); the
// per-point execution times are identical to querying the estimator
// width by width.
func Fig7() *Fig7Result {
	f := flc.New(flc.DefaultConfig())
	est := estimate.New([]*spec.Channel{f.Ch1, f.Ch2})
	space, err := explore.Sweep([]*spec.Channel{f.Ch1, f.Ch2}, est, explore.Config{
		Protocols: []spec.Protocol{spec.FullHandshake},
		MinWidth:  1,
		MaxWidth:  24,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: Fig7 sweep: %v", err)) // static FLC input cannot fail
	}
	res := &Fig7Result{PlateauWidth: f.Ch1.MessageBits(), ConstraintClocks: 2000}
	for _, pt := range space.Points {
		p := Fig7Point{
			Width:  pt.Width,
			EvalR3: pt.ExecTime[f.EvalR3],
			ConvR2: pt.ExecTime[f.ConvR2],
		}
		res.Points = append(res.Points, p)
		if res.MinWidthMeetingConstraint == 0 && p.ConvR2 <= res.ConstraintClocks {
			res.MinWidthMeetingConstraint = p.Width
		}
	}
	return res
}

func (r *Fig7Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 7 — FLC performance vs. bus width (full handshake)\n\n")
	fmt.Fprintf(&b, "  %5s  %12s  %12s\n", "width", "EVAL_R3", "CONV_R2")
	for _, p := range r.Points {
		mark := ""
		if p.ConvR2 <= r.ConstraintClocks && p.Width == r.MinWidthMeetingConstraint {
			mark = "  <- CONV_R2 meets 2000-clock constraint"
		}
		fmt.Fprintf(&b, "  %5d  %12d  %12d%s\n", p.Width, p.EvalR3, p.ConvR2, mark)
	}
	fmt.Fprintf(&b, "\n  plateau: widths beyond %d pins buy nothing (16 data + 7 address bits)\n", r.PlateauWidth)
	fmt.Fprintf(&b, "  CONV_R2 meets a %d-clock constraint only for widths >= %d (paper: widths > 4)\n",
		r.ConstraintClocks, r.MinWidthMeetingConstraint)
	return b.String()
}

// Fig7SimPoint is one simulator cross-check sample.
type Fig7SimPoint struct {
	Width int
	// Clocks is the simulated completion time of the whole FLC with
	// bus B refined at this width and computation charged by the cost
	// model.
	Clocks int64
}

// Fig7SimCheck cross-validates the estimator's Fig. 7 shape on the
// cycle-counting simulator: bus B is protocol-generated at each width,
// the refined FLC is executed, and total completion time is reported.
// The shape — monotone non-increasing, flat past 23 pins — must match
// the estimator's.
func Fig7SimCheck(widths []int) ([]Fig7SimPoint, error) {
	var out []Fig7SimPoint
	for _, w := range widths {
		f := flc.New(flc.DefaultConfig())
		bus := f.BusB(w)
		if _, err := protogen.Generate(f.Sys, bus, protogen.Config{Protocol: spec.FullHandshake}); err != nil {
			return nil, err
		}
		model := estimate.DefaultModel()
		eng, err := sim.NewEngine(f.Sys)
		if err != nil {
			return nil, err
		}
		res, err := eng.Run(sim.Config{Cost: &model})
		if err != nil {
			return nil, fmt.Errorf("width %d: %w", w, err)
		}
		out = append(out, Fig7SimPoint{Width: w, Clocks: res.Clocks})
	}
	return out, nil
}

// ---- Fig. 8: three constrained bus designs ----

// Fig8Row is one design row of the paper's table.
type Fig8Row struct {
	Design      string
	Constraints []busgen.Constraint
	// SeparateLines is the total bitwidth of the channels implemented
	// separately (46 pins).
	SeparateLines int
	// Width is the selected bus width in pins.
	Width int
	// BusRate is the selected bus rate in bits/clock.
	BusRate float64
	// ReductionPct is the interconnect reduction percentage.
	ReductionPct float64
}

// Fig8Result is the three-design table.
type Fig8Result struct {
	Rows []Fig8Row
}

// Fig8Designs returns the paper's three constraint sets.
func Fig8Designs() map[string][]busgen.Constraint {
	return map[string][]busgen.Constraint{
		"A": {
			{Kind: busgen.MinPeakRate, Channel: "ch2", Value: 10, Weight: 10},
		},
		"B": {
			{Kind: busgen.MinPeakRate, Channel: "ch2", Value: 10, Weight: 2},
			{Kind: busgen.MinBusWidth, Value: 14, Weight: 1},
			{Kind: busgen.MaxBusWidth, Value: 18, Weight: 1},
		},
		"C": {
			{Kind: busgen.MinPeakRate, Channel: "ch2", Value: 10, Weight: 1},
			{Kind: busgen.MinBusWidth, Value: 16, Weight: 5},
			{Kind: busgen.MaxBusWidth, Value: 16, Weight: 5},
		},
	}
}

// Fig8 runs bus generation on the FLC's ch1+ch2 group under the three
// constraint sets of the paper's Fig. 8.
func Fig8() (*Fig8Result, error) {
	designs := Fig8Designs()
	out := &Fig8Result{}
	for _, name := range []string{"A", "B", "C"} {
		f := flc.New(flc.DefaultConfig())
		est := estimate.New([]*spec.Channel{f.Ch1, f.Ch2})
		cfg := busgen.DefaultConfig()
		cfg.Constraints = designs[name]
		res, err := busgen.Generate([]*spec.Channel{f.Ch1, f.Ch2}, est, cfg)
		if err != nil {
			return nil, fmt.Errorf("design %s: %w", name, err)
		}
		out.Rows = append(out.Rows, Fig8Row{
			Design:        name,
			Constraints:   designs[name],
			SeparateLines: res.SeparateLines,
			Width:         res.Width,
			BusRate:       res.BusRate,
			ReductionPct:  res.InterconnectReduction * 100,
		})
	}
	return out, nil
}

func (r *Fig8Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 8 — bus constraints, selected widths and rates (FLC ch1+ch2)\n\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  Design %s:\n", row.Design)
		for _, c := range row.Constraints {
			fmt.Fprintf(&b, "    constraint: %s\n", c)
		}
		fmt.Fprintf(&b, "    total bitwidth of the channels : %d pins\n", row.SeparateLines)
		fmt.Fprintf(&b, "    selected bus rate              : %g bits/clock\n", row.BusRate)
		fmt.Fprintf(&b, "    selected buswidth              : %d pins\n", row.Width)
		fmt.Fprintf(&b, "    interconnect reduction         : %.0f %%\n\n", row.ReductionPct)
	}
	b.WriteString("  (paper: widths 20/18/16, rates 10/9/8 bits/clock, reductions 56/61/66 %)\n")
	return b.String()
}
