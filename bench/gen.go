package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/difftest"
	"repro/internal/flc"
	"repro/internal/hdl"
	"repro/internal/serve"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// splitmix is a splitmix64 rand.Source: seeding one per generated input
// costs a few nanoseconds, where math/rand's default source fills a
// 607-word table.
type splitmix uint64

func (s *splitmix) Seed(seed int64) { *s = splitmix(seed) }

func (s *splitmix) Uint64() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }

// inputRNG returns the generator for input i of a workload: every input
// is a pure function of (seed, i), so any prefix of the input stream is
// the same in a timed run, a traced run and a test.
func inputRNG(seed int64, i int) *rand.Rand {
	s := splitmix(uint64(seed)*0xD1B54A32D192ED03 ^ uint64(i))
	s.Uint64()
	return rand.New(&s)
}

// sysSpec is one .sys text of the corpus with the system name it
// declares, so each request can rename its copy and get a distinct
// cache key for identical work.
type sysSpec struct {
	name, text string
}

// rename gives the spec a request-unique system name. spec.Hash covers
// the name, so the copy is a cache miss that does the same work.
func (s sysSpec) rename(tag string) string {
	return strings.Replace(s.text, "system "+s.name+" is", "system "+s.name+"_"+tag+" is", 1)
}

// corpus holds the hand-picked specs the generator draws from.
type corpus struct {
	// busgen are feasible specs synthesized without force_width, so the
	// request runs bus generation.
	busgen []sysSpec
	// mesh are the large specs (mesh-4..6, up to 24 KB), synthesized
	// with a forced width.
	mesh []sysSpec
	// pq and pqSolo are the specs the checker workloads verify.
	pq, pqSolo sysSpec
}

// loadCorpus reads testdata/*.sys under root and prints the built-in
// workloads. Every spec must parse and keep its name line intact.
func loadCorpus(root string) (*corpus, error) {
	c := &corpus{}
	add := func(text string) (sysSpec, error) {
		sys, err := hdl.Parse(text)
		if err != nil {
			return sysSpec{}, err
		}
		s := sysSpec{name: sys.Name, text: text}
		if !strings.Contains(text, "system "+s.name+" is") {
			return sysSpec{}, fmt.Errorf("spec %s: no \"system %s is\" line to rename", s.name, s.name)
		}
		return s, nil
	}
	for _, f := range []string{"pq", "pqsolo", "flc", "dma"} {
		b, err := os.ReadFile(filepath.Join(root, "testdata", f+".sys"))
		if err != nil {
			return nil, err
		}
		s, err := add(string(b))
		if err != nil {
			return nil, fmt.Errorf("testdata/%s.sys: %w", f, err)
		}
		c.busgen = append(c.busgen, s)
		switch f {
		case "pq":
			c.pq = s
		case "pqsolo":
			c.pqSolo = s
		}
	}
	addPrinted := func(dst *[]sysSpec, sys *spec.System) error {
		text, err := hdl.Print(sys)
		if err == nil {
			var s sysSpec
			if s, err = add(text); err == nil {
				*dst = append(*dst, s)
				return nil
			}
		}
		return fmt.Errorf("printed %s: %w", sys.Name, err)
	}
	pq, _ := workloads.PQ()
	for _, sys := range []*spec.System{pq, flc.New(flc.DefaultConfig()).Sys,
		workloads.Ethernet(1), workloads.Ethernet(2), workloads.Ethernet(4),
		workloads.Mesh(2), workloads.Mesh(3)} {
		if err := addPrinted(&c.busgen, sys); err != nil {
			return nil, err
		}
	}
	for n := 4; n <= 6; n++ {
		if err := addPrinted(&c.mesh, workloads.Mesh(n)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// tag is the request-unique suffix of a renamed system.
func tag(seed int64, i int) string { return fmt.Sprintf("s%d_%d", uint64(seed), i) }

// inputClass is where a synth-cold input's spec comes from.
type inputClass uint8

const (
	difftestSpec inputClass = iota // a printed difftest.Generate system
	busgenSpec                     // a hand-picked feasible spec
	meshSpec                       // mesh-4..6, the large-spec tail
)

// slot is one position of a synth-cold block: its spec class, its op,
// and its index among the block's slots of that class.
type slot struct {
	class inputClass
	sweep bool
	n     int
}

// synthBlock is the mix of every 40 synth-cold inputs: 80% difftest
// systems, 15% bus-generation specs, 5% mesh; 10% sweeps. The 90/10
// split of synthesize and sweep is the workload's definition; the
// split between spec classes is an assumption, as no record of ifsynd
// traffic exists. Each block holds the mix exactly (stratified
// sampling), so a run sees the assumed mix rather than a random draw
// from it; the seed orders each block and draws the rest.
var synthBlock = func() []slot {
	var b []slot
	n := map[inputClass]int{}
	add := func(c inputClass, sweep bool, count int) {
		for ; count > 0; count-- {
			b = append(b, slot{c, sweep, n[c]})
			n[c]++
		}
	}
	add(difftestSpec, false, 29)
	add(difftestSpec, true, 3)
	add(busgenSpec, false, 5)
	add(busgenSpec, true, 1)
	add(meshSpec, false, 2)
	return b
}()

// synthRequest is input i of synth-cold (and of serve-warm's working
// set); no other input shares its spec.
//
//   - difftest systems carry a seeded force_width 1..16: a seeded system
//     may have no feasible bus width, and validity must not depend on
//     the code under test.
//   - The hand-picked feasible specs run bus generation.
//   - mesh-4..6 (up to 24 KB) run with a forced width.
//
// Options are drawn only from legal combinations: robust retries and
// parity need the full handshake, parity needs robust.
func (c *corpus) synthRequest(seed int64, i int) serve.Request {
	blk, n := i/len(synthBlock), len(synthBlock)
	s := synthBlock[inputRNG(seed, -1-blk).Perm(n)[i%n]]
	r := inputRNG(seed, i)
	req := serve.Request{Op: serve.OpSynthesize}
	if s.sweep {
		req.Op = serve.OpSweep
	}
	o := &req.Options
	rot := int(uint64(seed) % 48)
	switch s.class {
	case difftestSpec:
		sys := difftest.Generate(r.Int63(), difftest.DefaultGenConfig())
		text, err := hdl.Print(sys)
		if err != nil {
			// difftest systems use only printable constructs.
			panic(fmt.Sprintf("print %s: %v", sys.Name, err))
		}
		req.Spec = text
		o.ForceWidth = 1 + r.Intn(16)
	case busgenSpec:
		k := blk*6 + s.n + rot
		req.Spec = c.busgen[k%len(c.busgen)].rename(tag(seed, i))
	case meshSpec:
		// Sizes cycle with period 3 and widths with period 16, so every
		// 48 mesh inputs cover each (size, width) pair once.
		k := blk*2 + s.n + rot
		req.Spec = c.mesh[k%len(c.mesh)].rename(tag(seed, i))
		o.ForceWidth = 1 + 7*k%16
	}
	if req.Op == serve.OpSweep {
		o.IncludeRobust = r.Intn(2) == 0
		return req
	}
	if r.Intn(3) == 0 {
		o.Protocol = "half"
	}
	o.Arbitrate = r.Intn(3) == 0
	if r.Intn(4) == 0 {
		o.Robust = true
		o.TimeoutClocks = []int64{0, 8, 16, 64}[r.Intn(4)]
		if o.Protocol != "half" {
			o.MaxRetries = r.Intn(4)
			o.Parity = r.Intn(3) == 0
		}
	}
	return req
}

// verdict is the kind-level summary of a verify or repair body that
// the checker workloads compare against their tables: the sorted
// distinct violation kinds ("clean" when none), whether the search was
// exhaustive, and for repair whether the loop repaired the protocol.
func verdict(res *serve.ResultJSON) string {
	v := res.Verify
	if v == nil {
		return "no verdict"
	}
	seen := map[string]bool{}
	var kinds []string
	for _, x := range v.Violations {
		if !seen[x.Kind] {
			seen[x.Kind] = true
			kinds = append(kinds, x.Kind)
		}
	}
	sort.Strings(kinds)
	s := strings.Join(kinds, "+")
	if s == "" {
		s = "clean"
	}
	if v.Incomplete {
		s += " bounded"
	} else {
		s += " exhaustive"
	}
	if res.Repair != nil && res.Repair.Repaired {
		s = "repaired " + s
	}
	return s
}

// checkCell is one verify-mixed request shape and what a correct
// checker answers. kinds are the violation kinds, sorted and joined by
// "+" ("" when clean), of the cell's whole state space, or for a repair
// of the repaired protocol's final proof. reach is the size of that
// space, or 0 when every search stops at the checker's violation cap
// first. Both were measured once with a bound far above the space and
// are written down here, so the verdict the benchmark expects follows
// from the bound and the recorded state count rather than from a run.
type checkCell struct {
	name  string
	op    string
	solo  bool // PQSolo instead of PQ
	opts  serve.Options
	kinds string
	reach int
}

// cell builds a catalog entry: op on PQ or PQSolo with one protocol
// variant ("full", "half", "robust", "robust-t8r2": robust with an
// 8-clock timeout and 2 retries), arbitration, a drop budget and a
// state bound.
func cell(op string, solo bool, variant string, arb bool, drops, bound int, kinds string, reach int) checkCell {
	o := serve.Options{Arbitrate: arb, VerifyDrops: drops, VerifyStates: bound}
	switch variant {
	case "half":
		o.Protocol = "half"
	case "robust":
		o.Robust = true
	case "robust-t8r2":
		o.Robust, o.TimeoutClocks, o.MaxRetries = true, 8, 2
	}
	name := "pq-" + variant
	if solo {
		name = "solo-" + variant
	}
	if arb {
		name += "-arb"
	}
	name += fmt.Sprintf("-d%d", drops)
	if op == serve.OpRepair {
		name = "repair-" + name
	}
	return checkCell{name, op, solo, o, kinds, reach}
}

// checkCells is verify-mixed's catalog: a grid, not a selection, in
// the 80/20 split of verify and repair the workload is defined by.
//
//   - verify (24): every protocol variant of PQ, with and without
//     arbitration, and of PQSolo, whose single master makes arbitration
//     change nothing the checker sees, each at drop budgets 0 and 1;
//   - repair (6): the half handshake, the protocol the escalation
//     ladder repairs (it reselects a full handshake from a half one,
//     never hardens a full one), on both specs with and without
//     arbitration at drop budget 0, and on PQSolo at drop budget 1.
//     PQ's drop-1 repair is left out: its iterations cannot finish
//     within a 60k bound, so its path would follow the order of a
//     bounded search rather than the protocol.
//
// Every bound is 60k states, the workload's largest, unless the
// reachable set lies within a factor 1.5 of it; then the bound is the
// largest multiple of 10k at most two thirds of the set. A cell is thus
// exhaustive with at least 1.5 times its set in hand, or bounded with
// at least 1.5 times its bound beyond it, and a change to the checker
// that moves state counts by less than that leaves every verdict as it
// is. Width 8 is forced so PQ keeps the paper's 8-bit bus B.
var checkCells = []checkCell{
	cell(serve.OpVerify, false, "full", false, 0, 60000, "", 178),
	cell(serve.OpVerify, false, "full", false, 1, 60000, "deadlock+driver-conflict", 0),
	cell(serve.OpVerify, false, "full", true, 0, 60000, "", 209),
	cell(serve.OpVerify, false, "full", true, 1, 60000, "deadlock", 0),
	cell(serve.OpVerify, false, "half", false, 0, 60000, "data-corruption+driver-conflict", 394),
	cell(serve.OpVerify, false, "half", false, 1, 60000, "data-corruption+driver-conflict", 0),
	cell(serve.OpVerify, false, "half", true, 0, 60000, "data-corruption+driver-conflict", 441),
	cell(serve.OpVerify, false, "half", true, 1, 60000, "data-corruption+deadlock+driver-conflict", 0),
	cell(serve.OpVerify, false, "robust", false, 0, 40000, "", 62326),
	cell(serve.OpVerify, false, "robust", false, 1, 60000, "bounded-response+data-corruption+driver-conflict", 678661),
	cell(serve.OpVerify, false, "robust", true, 0, 60000, "", 32288),
	cell(serve.OpVerify, false, "robust", true, 1, 60000, "bounded-response+data-corruption+driver-conflict", 387322),
	cell(serve.OpVerify, false, "robust-t8r2", false, 0, 60000, "", 30132),
	cell(serve.OpVerify, false, "robust-t8r2", false, 1, 60000, "bounded-response+data-corruption+driver-conflict", 388178),
	cell(serve.OpVerify, false, "robust-t8r2", true, 0, 60000, "", 16645),
	cell(serve.OpVerify, false, "robust-t8r2", true, 1, 60000, "bounded-response+data-corruption+driver-conflict", 215350),

	cell(serve.OpVerify, true, "full", false, 0, 60000, "", 128),
	cell(serve.OpVerify, true, "full", false, 1, 60000, "deadlock", 0),
	cell(serve.OpVerify, true, "half", false, 0, 60000, "data-corruption+driver-conflict", 276),
	cell(serve.OpVerify, true, "half", false, 1, 60000, "data-corruption+deadlock+driver-conflict", 0),
	cell(serve.OpVerify, true, "robust", false, 0, 60000, "", 7455),
	cell(serve.OpVerify, true, "robust", false, 1, 30000, "bounded-response+data-corruption", 53711),
	cell(serve.OpVerify, true, "robust-t8r2", false, 0, 60000, "", 4696),
	cell(serve.OpVerify, true, "robust-t8r2", false, 1, 60000, "bounded-response+data-corruption", 36544),

	cell(serve.OpRepair, false, "half", false, 0, 60000, "", 30132),
	cell(serve.OpRepair, false, "half", true, 0, 60000, "", 215),
	cell(serve.OpRepair, true, "half", false, 0, 60000, "", 4696),
	cell(serve.OpRepair, true, "half", true, 0, 60000, "", 4696),
	cell(serve.OpRepair, true, "half", false, 1, 60000, "", 34331),
	cell(serve.OpRepair, true, "half", true, 1, 60000, "", 34331),
}

// check compares a reply with what the cell's recorded state space
// implies. A bound that covers the space must give exactly its kinds,
// exhaustively; a smaller one must stop at the state bound, having
// reported only kinds the space holds, since a bounded search may end
// before it meets any. A cell whose searches end at the violation cap
// must end there, with kinds from its record. A repair must repair.
func (c *checkCell) check(res *serve.ResultJSON) error {
	v := res.Verify
	switch {
	case v == nil:
		return fmt.Errorf("%s: no verdict", c.name)
	case c.op == serve.OpRepair && (res.Repair == nil || !res.Repair.Repaired):
		return fmt.Errorf("%s: not repaired (%s)", c.name, verdict(res))
	}
	if c.reach > 0 && c.reach <= c.opts.VerifyStates {
		want := c.kinds
		if want == "" {
			want = "clean"
		}
		want += " exhaustive"
		if c.op == serve.OpRepair {
			want = "repaired " + want
		}
		if got := verdict(res); got != want {
			return fmt.Errorf("%s: verdict %q, want %q", c.name, got, want)
		}
		return nil
	}
	stop := "state bound"
	if c.reach == 0 {
		stop = "violation cap"
	}
	if !v.Incomplete || !strings.HasPrefix(v.IncompleteReason, stop) {
		return fmt.Errorf("%s: verdict %q (%s), want a search that stops at the %s", c.name, verdict(res), v.IncompleteReason, stop)
	}
	for _, x := range v.Violations {
		if !strings.Contains("+"+c.kinds+"+", "+"+x.Kind+"+") {
			return fmt.Errorf("%s: %s violation, not among the recorded %q", c.name, x.Kind, c.kinds)
		}
	}
	return nil
}

// work is the stored states a verify or repair reply's searches report:
// verify-mixed's unit of work, so that its throughput stays comparable
// when a checker change legitimately grows or shrinks the state count.
func work(res *serve.ResultJSON) float64 {
	if res.Repair != nil {
		n := 0
		for _, it := range res.Repair.Iterations {
			n += it.States
		}
		return float64(n)
	}
	return float64(res.Verify.States)
}

// checkRequest is input i of verify-mixed and the index of its catalog
// cell. Inputs come in blocks of len(checkCells), each a seeded
// permutation of the catalog, so any run of whole blocks has the same
// mix and the same checker work at every seed. The seed also picks the
// unique system name that keeps every request a cache miss.
func (c *corpus) checkRequest(seed int64, i int) (serve.Request, int) {
	n := len(checkCells)
	k := inputRNG(seed, -1-i/n).Perm(n)[i%n]
	cell := &checkCells[k]
	s := c.pq
	if cell.solo {
		s = c.pqSolo
	}
	o := cell.opts
	o.ForceWidth = 8
	return serve.Request{Op: cell.op, Spec: s.rename(tag(seed, i)), Options: o}, k
}

// marshal encodes a request body; serve.Request is a closed struct of
// strings and scalars, so encoding cannot fail.
func marshal(req *serve.Request) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		panic("marshal request: " + err.Error())
	}
	return b
}

// inputsDigest is the sha256 of the leading generated inputs: the same
// seed must give the same digest.
func inputsDigest(in [][]byte) string {
	h := sha256.New()
	for _, b := range in {
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
