package sim

import "repro/internal/estimate"

// MaxCheckpoints bounds the checkpoints RunCheckpointed captures.
const MaxCheckpoints = 256

// Checkpoint is a run frozen at a delta-cycle boundary: every slot
// value, each process's program counter, wait state, locals and
// cost-model lag, the delayed signal commits, and the run's clock,
// delta, step and hook-call counts. It is immutable, so any number of
// concurrent Resume calls may share it. The initial state is a
// checkpoint too: every Run starts by restoring it.
type Checkpoint struct {
	e    *Engine
	cost *estimate.CostModel
	runClock
	glob []Value
	// events counts each signal's value changes, in Engine.sigSlots
	// order.
	events   []int64
	procs    []procPoint
	runnable []int32
	delayed  []bdelayed
}

// procPoint is one process in a checkpoint.
type procPoint struct {
	procRegs
	locals []Value
}

// HookCalls returns the Config.Mutate calls the captured run made before
// the boundary.
func (c *Checkpoint) HookCalls() int64 { return c.hookCalls }

// initialCheckpoint is the system's initial state: the shared value
// templates, every process ready at its first instruction, time 0.
func (e *Engine) initialCheckpoint() *Checkpoint {
	c := &Checkpoint{
		e:        e,
		runClock: runClock{graceEnd: -1},
		glob:     e.globInit,
		events:   make([]int64, len(e.sigSlots)),
	}
	for i, prog := range e.progs {
		c.procs = append(c.procs, procPoint{
			procRegs: procRegs{state: stateReady, wDeadline: -1},
			locals:   prog.localInit,
		})
		c.runnable = append(c.runnable, int32(i))
	}
	return c
}

// restore loads a checkpoint into the runner. Slot values are shared
// with the checkpoint (for the initial state, with the engine's
// templates), so no slot owns its container. Runtime updates either
// build new containers (applyPath, persistent bit vectors) or mutate in
// place only containers the ownership flags prove this run built
// itself, so neither templates nor checkpoints are ever mutated.
func (r *runner) restore(c *Checkpoint) {
	r.runClock = c.runClock
	copy(r.glob, c.glob)
	clear(r.sharedOwn)
	for k, i := range r.e.sigSlots {
		r.sig[i] = bsignal{events: c.events[k]}
	}
	for i, p := range r.procs {
		p.procRegs = c.procs[i].procRegs
		p.err = nil
		p.sliceSteps = 0
		copy(p.Locals, c.procs[i].locals)
		clear(p.localOwn)
	}
	r.dirty = r.dirty[:0]
	r.delayed = append(r.delayed[:0], c.delayed...)
	r.runnable = append(r.runnable[:0], c.runnable...)
}

// capture freezes the runner at the delta-cycle boundary before the
// runnable processes run. At a boundary no signal has a pending value,
// so the mutable containers are the ones the run owns (arrays it
// stores into in place) and the record buffers a committed signal may
// sit in. An owned container passes to the checkpoint and the run gives
// up its ownership, so its next store copies first; a buffered record
// is copied, since its buffer will be refilled.
func (r *runner) capture(runnable []int32) *Checkpoint {
	e := r.e
	c := &Checkpoint{
		e:        e,
		cost:     r.cfg.Cost,
		runClock: r.runClock,
		glob:     append([]Value(nil), r.glob...),
		events:   make([]int64, len(e.sigSlots)),
		procs:    make([]procPoint, len(r.procs)),
		runnable: append([]int32(nil), runnable...),
		delayed:  append([]bdelayed(nil), r.delayed...),
	}
	clear(r.sharedOwn)
	for k, i := range e.sigSlots {
		c.events[k] = r.sig[i].events
		if rv, ok := c.glob[i].(RecordVal); ok && r.buffered(i, rv) {
			c.glob[i] = RecordVal{Type: rv.Type, Fields: append([]Value(nil), rv.Fields...)}
		}
	}
	for i, p := range r.procs {
		c.procs[i] = procPoint{procRegs: p.procRegs, locals: append([]Value(nil), p.Locals...)}
		clear(p.localOwn)
	}
	return c
}

// buffered reports whether rv's fields live in one of signal slot i's
// recycled record buffers.
func (r *runner) buffered(i int32, rv RecordVal) bool {
	b := &r.recBufs[i]
	if len(rv.Fields) == 0 || b[0].fields == nil {
		return false
	}
	return &rv.Fields[0] == &b[0].fields[0] || &rv.Fields[0] == &b[1].fields[0]
}

// checkpointLog collects a run's checkpoints at every stride-th
// delta-cycle boundary. When it would pass MaxCheckpoints it keeps every
// other checkpoint and doubles the stride, so the kept ones stay evenly
// spaced over the run so far.
type checkpointLog struct {
	cps    []*Checkpoint
	stride int64
}

func (l *checkpointLog) due(deltas int64) bool { return deltas > 0 && deltas%l.stride == 0 }

func (l *checkpointLog) add(c *Checkpoint) {
	if len(l.cps) == MaxCheckpoints {
		// The log holds the boundaries 0, s, ..., (MaxCheckpoints-1)s and
		// c is at MaxCheckpoints*s: the even ones and c are the multiples
		// of the doubled stride.
		n := 0
		for i := 0; i < len(l.cps); i += 2 {
			l.cps[n] = l.cps[i]
			n++
		}
		clear(l.cps[n:])
		l.cps = l.cps[:n]
		l.stride *= 2
	}
	l.cps = append(l.cps, c)
}
