// Package fault implements deterministic wire-fault injection for
// refined specifications: seeded campaigns that mutate bus signal
// transitions inside the simulation kernel and classify how the
// generated protocols cope.
//
// The fault model targets the artifact protocol generation creates — the
// global bus record signal. Each Fault names one record field (a control
// line like START or DONE, the ID lines, or the DATA word) and a fault
// class:
//
//	StuckAt0/StuckAt1 — from its AfterEvents-th transition on, the field
//	                    is clamped low/high for Duration clocks
//	                    (0 = forever);
//	BitFlip           — one transition has one bit inverted;
//	DropEvent         — one transition is suppressed (the field keeps
//	                    its old value);
//	DelayJitter       — one transition is deferred by Duration clocks.
//
// Faults are scheduled by *event count*, not wall-clock: "the third DONE
// transition" is a property of the protocol's behavior, so the same
// fault hits the same handshake phase regardless of when it happens.
// Injection is a pure function of the simulated event sequence — no
// clocks, no randomness inside the hook — which makes every faulty run
// reproducible bit for bit. Randomness lives only in Randomize, which
// expands a seed into a concrete fault list before the run starts.
package fault

import (
	"fmt"
	"math/rand"

	"repro/internal/bits"
	"repro/internal/sim"
	"repro/internal/spec"
)

// Class enumerates the wire-fault classes.
type Class int

// Fault classes.
const (
	StuckAt0 Class = iota
	StuckAt1
	BitFlip
	DropEvent
	DelayJitter
	numClasses
)

func (c Class) String() string {
	switch c {
	case StuckAt0:
		return "stuck-at-0"
	case StuckAt1:
		return "stuck-at-1"
	case BitFlip:
		return "bit-flip"
	case DropEvent:
		return "drop-event"
	case DelayJitter:
		return "delay-jitter"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// AllClasses lists every fault class.
func AllClasses() []Class {
	return []Class{StuckAt0, StuckAt1, BitFlip, DropEvent, DelayJitter}
}

// Fault is one scheduled fault on a field of a bus record signal.
type Fault struct {
	Class Class
	// Signal is the global record signal's name (the bus, e.g. "B").
	Signal string
	// Field is the targeted record field ("START", "DONE", "ID", ...).
	Field string
	// Bit is the bit flipped within the field (BitFlip only).
	Bit int
	// AfterEvents is how many transitions of the field to let pass
	// unharmed; 0 strikes the field's first transition.
	AfterEvents int64
	// Duration is the clamp window in clocks for StuckAt0/StuckAt1
	// (0 = forever) and the deferral in clocks for DelayJitter
	// (0 = one clock).
	Duration int64
}

func (f Fault) String() string {
	s := fmt.Sprintf("%s %s.%s", f.Class, f.Signal, f.Field)
	if f.Class == BitFlip {
		s += fmt.Sprintf("[%d]", f.Bit)
	}
	s += fmt.Sprintf(" after %d events", f.AfterEvents)
	if f.Duration > 0 && (f.Class == StuckAt0 || f.Class == StuckAt1 || f.Class == DelayJitter) {
		s += fmt.Sprintf(" for %d clocks", f.Duration)
	}
	return s
}

// armedFault is a Fault plus its per-run firing state.
type armedFault struct {
	Fault
	fired     bool
	dead      bool  // will never mutate again; counted out of Injector.live
	stuckFrom int64 // clock the clamp armed at; -1 = not armed yet
	// stuckVal caches the clamp value (StuckAt0/StuckAt1): a permanent
	// clamp rewrites the field on every committed event in its window,
	// and the all-zeros/all-ones vector never changes.
	stuckVal sim.Value
}

// sigFaults is the injector's per-signal resolution: the faults
// targeting each record field (as indices into Injector.faults, so
// rearming the injector never invalidates a bucket), plus that field's
// transition count. Resolving names to indices once per signal keeps
// the Mutate hook — which runs on every committed signal event of every
// faulty run — free of string building and map lookups.
type sigFaults struct {
	sig     *spec.Variable
	typ     spec.RecordType
	byField [][]int32
	counts  []int64
	any     bool
	// changes logs, per field, the hook call of each changed proposal
	// (recording injectors only).
	changes [][]int64
}

// Injector realizes a fault list as a simulator mutation hook. One
// injector serves one run at a time: it accumulates per-field event
// counts. Reset rearms it for the next run reusing all of its storage,
// which is what lets a campaign chunk drive tens of thousands of runs
// through one injector without allocating.
type Injector struct {
	faults []armedFault
	sigs   []sigFaults
	// live counts faults that can still mutate; at zero the injector
	// reports Mutation.Done so the kernel stops calling the hook. A
	// one-shot fault (flip, drop, jitter) dies when it fires, a
	// transient clamp when its window closes; a permanent clamp never
	// dies.
	live int
	// record makes the injector count and log every field of every
	// record signal, faulted or not: the campaign's golden run records
	// with a fault-free one, so "changed proposal" has one definition.
	record bool
	// calls counts Mutate calls since the last Reset.
	calls int64
}

// NewInjector builds an injector for the given faults.
func NewInjector(faults []Fault) *Injector {
	in := &Injector{}
	in.Reset(faults)
	return in
}

// Reset rearms the injector with a new fault list, reusing its fault
// and per-signal bucket storage. Event counts and firing state restart
// from zero, exactly as a fresh injector's would.
func (in *Injector) Reset(faults []Fault) {
	in.faults = in.faults[:0]
	for _, f := range faults {
		in.faults = append(in.faults, armedFault{Fault: f, stuckFrom: -1})
	}
	in.live = len(in.faults)
	in.calls = 0
	for si := range in.sigs {
		in.rearm(&in.sigs[si])
	}
}

// rearm rebuilds one signal's fault buckets from the current fault list
// into the bucket storage it already owns.
func (in *Injector) rearm(sf *sigFaults) {
	sf.any = false
	clear(sf.counts)
	for i := range sf.changes {
		sf.changes[i] = sf.changes[i][:0]
	}
	for i := range sf.typ.Fields {
		b := sf.byField[i][:0]
		for fi := range in.faults {
			f := &in.faults[fi]
			if f.Signal == sf.sig.Name && f.Field == sf.typ.Fields[i].Name {
				b = append(b, int32(fi))
				sf.any = true
			}
		}
		sf.byField[i] = b
	}
}

// Attach installs the injector on a simulator configuration.
func (in *Injector) Attach(cfg *sim.Config) { cfg.Mutate = in.Mutate }

// resolve returns the per-field fault buckets for sig, building them on
// the signal's first committed event.
func (in *Injector) resolve(sig *spec.Variable, typ spec.RecordType) *sigFaults {
	for i := range in.sigs {
		if in.sigs[i].sig == sig && len(in.sigs[i].counts) == len(typ.Fields) {
			return &in.sigs[i]
		}
	}
	in.sigs = append(in.sigs, sigFaults{
		sig:     sig,
		typ:     typ,
		byField: make([][]int32, len(typ.Fields)),
		counts:  make([]int64, len(typ.Fields)),
	})
	sf := &in.sigs[len(in.sigs)-1]
	if in.record {
		sf.changes = make([][]int64, len(typ.Fields))
	}
	in.rearm(sf)
	return sf
}

// Mutate is the sim.Config.Mutate hook: given a proposed commit of a
// record signal, it applies every armed fault and returns the mutated
// value (plus a deferred commit for delay jitter).
func (in *Injector) Mutate(now int64, sig *spec.Variable, old, next sim.Value) sim.Mutation {
	call := in.calls
	in.calls++
	ov, ook := old.(sim.RecordVal)
	nv, nok := next.(sim.RecordVal)
	if !ook || !nok || len(ov.Fields) != len(nv.Fields) {
		if _, isRec := sig.Type.(spec.RecordType); !isRec {
			// Faults only target record fields; a signal whose declared
			// type is not a record can never be mutated.
			return sim.Mutation{SkipSig: true}
		}
		return sim.Mutation{}
	}
	if in.live == 0 && !in.record {
		return sim.Mutation{Done: true}
	}
	sf := in.resolve(sig, nv.Type)
	if !sf.any && !in.record {
		// No armed fault targets this signal, and the fault list is
		// fixed for the whole run: opt out of further calls for it.
		return sim.Mutation{SkipSig: true}
	}
	out := nv
	mutated := false
	// ensure switches out to a private copy of next's fields on the
	// first actual mutation (kept a named function, not a closure, so
	// the common no-fire call allocates nothing).
	ensure := func() sim.RecordVal {
		if !mutated {
			out = sim.RecordVal{Type: nv.Type, Fields: append([]sim.Value{}, nv.Fields...)}
			mutated = true
		}
		return out
	}
	var m sim.Mutation
	for i := range nv.Type.Fields {
		affs := sf.byField[i]
		if len(affs) == 0 && !in.record {
			// Transition counts only feed fault arming, so fields no
			// fault targets need no edge detection at all.
			continue
		}
		changed := !ov.Fields[i].Equal(nv.Fields[i])
		for _, fi := range affs {
			af := &in.faults[fi]
			switch af.Class {
			case StuckAt0, StuckAt1:
				if af.stuckFrom < 0 && changed && sf.counts[i] >= af.AfterEvents {
					af.stuckFrom = now
				}
				if af.stuckFrom >= 0 && af.Duration > 0 && now >= af.stuckFrom+af.Duration && !af.dead {
					af.dead = true
					in.live--
				}
				if af.stuckFrom >= 0 && (af.Duration <= 0 || now < af.stuckFrom+af.Duration) {
					if af.stuckVal == nil {
						if w := fieldWidth(nv.Fields[i]); w > 0 {
							v := bits.New(w)
							if af.Class == StuckAt1 {
								v = v.Not()
							}
							af.stuckVal = sim.VecVal{V: v}
						}
					}
					// Skip the rewrite when the field already holds the
					// clamp value (the steady state of a long window:
					// the previous commit was itself clamped), so an
					// armed clamp costs nothing until the program
					// actually drives the line.
					if af.stuckVal != nil && !nv.Fields[i].Equal(af.stuckVal) {
						ensure().Fields[i] = af.stuckVal
					}
				}
			case BitFlip:
				if !af.fired && changed && sf.counts[i] >= af.AfterEvents {
					af.fired = true
					af.dead = true
					in.live--
					if vv, ok := nv.Fields[i].(sim.VecVal); ok {
						b := af.Bit
						if w := vv.V.Width(); w > 0 {
							b %= w
							ensure().Fields[i] = sim.VecVal{V: vv.V.SetBit(b, !vv.V.Bit(b))}
						}
					}
				}
			case DropEvent:
				if !af.fired && changed && sf.counts[i] >= af.AfterEvents {
					af.fired = true
					af.dead = true
					in.live--
					ensure().Fields[i] = ov.Fields[i].Copy()
				}
			case DelayJitter:
				if !af.fired && changed && sf.counts[i] >= af.AfterEvents {
					af.fired = true
					af.dead = true
					in.live--
					// Suppress the transition now; re-drive the whole
					// intended record value Duration clocks later.
					ensure().Fields[i] = ov.Fields[i].Copy()
					m.Later = nv.Copy()
					m.Delay = af.Duration
					if m.Delay <= 0 {
						m.Delay = 1
					}
				}
			}
		}
		if changed {
			sf.counts[i]++
			if in.record {
				sf.changes[i] = append(sf.changes[i], call)
			}
		}
	}
	if mutated {
		m.Now = out
	}
	return m
}

func fieldWidth(v sim.Value) int {
	if vv, ok := v.(sim.VecVal); ok {
		return vv.V.Width()
	}
	return 0
}

// Plan parameterizes random fault drawing for one bus.
type Plan struct {
	Seed int64
	// Count is the number of faults to draw; 0 means 1.
	Count int
	// Classes restricts the classes drawn from; empty means all.
	Classes []Class
	// Window bounds AfterEvents: each fault arms after a uniformly
	// drawn number of field transitions in [0, Window). 0 means
	// DefaultWindow.
	Window int64
}

// DefaultWindow is the default AfterEvents range: wide enough to strike
// any handshake phase of a multi-transaction workload's first dozens of
// words.
const DefaultWindow = 48

// smSource is a splitmix64 rand.Source64. Campaigns seed one generator
// per run, and math/rand's default source fills a 607-word state array
// on every Seed — per-run cost that dwarfs the handful of draws a fault
// plan needs. splitmix64 has one word of state and O(1) seeding.
type smSource struct{ state uint64 }

func (s *smSource) Seed(seed int64) { s.state = uint64(seed) }

func (s *smSource) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *smSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// Randomize expands a seed into concrete faults against the bus's record
// signal. The same bus and plan always yield the same faults.
func Randomize(bus *spec.Bus, plan Plan) []Fault {
	return randomizeInto(nil, rand.New(&smSource{state: uint64(plan.Seed)}), bus, plan)
}

// randomizeInto is Randomize with caller-owned storage: dst's backing
// array is reused when it fits and rng is re-seeded from the plan, so a
// campaign loop draws each run's faults without allocating. The draw
// sequence is identical to Randomize's.
func randomizeInto(dst []Fault, rng *rand.Rand, bus *spec.Bus, plan Plan) []Fault {
	if bus.Signal == nil || len(bus.Record.Fields) == 0 {
		return nil
	}
	rng.Seed(plan.Seed)
	classes := plan.Classes
	if len(classes) == 0 {
		classes = AllClasses()
	}
	count := plan.Count
	if count <= 0 {
		count = 1
	}
	window := plan.Window
	if window <= 0 {
		window = DefaultWindow
	}
	faults := dst[:0]
	if cap(faults) < count {
		faults = make([]Fault, 0, count)
	}
	faults = faults[:count]
	for i := range faults {
		fld := bus.Record.Fields[rng.Intn(len(bus.Record.Fields))]
		f := Fault{
			Class:       classes[rng.Intn(len(classes))],
			Signal:      bus.Signal.Name,
			Field:       fld.Name,
			AfterEvents: rng.Int63n(window),
		}
		switch f.Class {
		case BitFlip:
			if w := fld.Type.BitWidth(); w > 0 {
				f.Bit = rng.Intn(w)
			}
		case StuckAt0, StuckAt1:
			// Transient clamps half the time, permanent otherwise.
			if rng.Intn(2) == 0 {
				f.Duration = 4 + rng.Int63n(28)
			}
		case DelayJitter:
			f.Duration = 1 + rng.Int63n(6)
		}
		faults[i] = f
	}
	return faults
}
