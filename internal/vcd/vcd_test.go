package vcd

import (
	"strings"
	"testing"

	"repro/internal/protogen"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workloads"
)

func TestHeaderDeclaresFlattenedBusFields(t *testing.T) {
	sys, bus := workloads.PQ()
	if _, err := protogen.Generate(sys, bus, protogen.Config{Protocol: spec.FullHandshake}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	w, err := NewWriter(&sb, sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"$timescale 1ns $end",
		"$scope module PQ $end",
		"$var wire 1 ! B.START $end",
		"$var wire 1 \" B.DONE $end",
		"$var wire 2 # B.ID $end",
		"$var wire 8 $ B.DATA $end",
		"$enddefinitions $end",
		"$dumpvars",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("header missing %q:\n%s", want, out)
		}
	}
}

func TestDumpCapturesHandshakeEdges(t *testing.T) {
	sys, bus := workloads.PQ()
	if _, err := protogen.Generate(sys, bus, protogen.Config{Protocol: spec.FullHandshake}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	w, err := NewWriter(&sb, sys)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.NewEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(sim.Config{OnEvent: w.OnEvent})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(res.Clocks); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// START is VCD id "!": count its rising edges; the PQ run does 9
	// accessor-driven words + 2 read-data acks = 11 START pulses.
	rises := strings.Count(out, "\n1!\n") + strings.Count(out, "\n1!")
	if rises < 11 {
		t.Errorf("START rises = %d, want >= 11\n", rises)
	}
	// Data words appear: 32 = "100000" on DATA (id $).
	if !strings.Contains(out, "b100000 $") {
		t.Error("DATA never carried the value 32")
	}
	// Time advances.
	if !strings.Contains(out, "#1\n") {
		t.Error("no timestamps emitted")
	}
	lastMark := strings.LastIndex(out, "#")
	if lastMark < 0 || !strings.Contains(out[lastMark:], "506") {
		t.Errorf("final timestamp missing; tail: %q", out[lastMark:])
	}
}

func TestScalarSignalsAndRepeatSuppression(t *testing.T) {
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	sig := sys.AddGlobal(spec.NewSignal("S", spec.BitVector(4)))
	cnt := m.AddVariable(spec.NewSignal("CNT", spec.Integer))
	b.Body = []spec.Stmt{
		spec.AssignSig(spec.Ref(sig), spec.VecString("0101")),
		spec.WaitFor(3),
		spec.AssignSig(spec.Ref(sig), spec.VecString("0101")), // no event
		spec.AssignSig(spec.Ref(cnt), spec.Int(7)),
		spec.WaitFor(1),
	}
	var sb strings.Builder
	w, err := NewWriter(&sb, sys)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.NewEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(sim.Config{OnEvent: w.OnEvent})
	if err != nil {
		t.Fatal(err)
	}
	w.Close(res.Clocks)
	out := sb.String()
	if strings.Count(out, "b101 ") != 1 {
		t.Errorf("S=0101 emitted %d times, want 1:\n%s", strings.Count(out, "b101 "), out)
	}
	if !strings.Contains(out, "b111 ") { // CNT = 7
		t.Errorf("integer signal value missing:\n%s", out)
	}
}

func TestCloseIdempotent(t *testing.T) {
	sys := spec.NewSystem("t")
	sys.AddModule("m").AddBehavior(spec.NewBehavior("B")).Body = []spec.Stmt{&spec.Null{}}
	var sb strings.Builder
	w, err := NewWriter(&sb, sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(5); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(9); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "#9") {
		t.Error("write after close")
	}
}
