// Command bench measures the repo's two heavy inner loops on the
// reference PQ workloads and records the numbers so the performance
// trajectory across PRs stays on the record:
//
//   - suite "verify" (default): model-checker exploration throughput
//     (states/sec), allocation footprint (bytes and allocs per stored
//     state) and wall time, appended to BENCH_verify.json.
//   - suite "fault": fault-campaign throughput (runs/sec), allocation
//     footprint (bytes and allocs per run) and the outcome histogram,
//     appended to BENCH_fault.json.
//   - suite "repair": end-to-end CEGIS repair trajectories on the
//     exhaustively-provable PQSolo workload, appended to
//     BENCH_repair.json: iterations, applied mutations, escalation
//     tier, states verified across all iterations and wall time, for
//     both the tier-1 lost-ack repair and the escalating half-handshake
//     run that reselects the protocol.
//   - suite "serve": the ifsynd daemon under concurrent mixed load
//     (internal/serve's harness against an in-process instance),
//     appended to BENCH_serve.json: reqs/s, p50/p99 latency, cache hit
//     rate and cancel latency for a cold pass (misses, dedups, cancel
//     probes) and a warm pass (cache replay throughput).
//
// By default a run is appended to an existing file; -fresh overwrites.
//
// Usage:
//
//	go run ./tools/bench -label pr5-binary-codec [-o BENCH_verify.json]
//	go run ./tools/bench -suite fault -label pr6-batch -runs 100000
//	go run ./tools/bench -suite repair -label pr8-escalation
//	go run ./tools/bench -suite serve -label pr9-daemon -reqs 2000
//
//	-label L    run label recorded in the file (default "dev")
//	-suite S    verify | fault | repair | serve (default verify)
//	-o FILE     output file (default BENCH_<suite>.json)
//	-fresh      overwrite the file instead of appending
//	-reps N     repetitions per scenario; best wall time wins (default 3)
//	-j N        worker goroutines (0 = all CPUs); -workers is an alias
//	-runs N     faulty runs per fault-suite scenario (default 100000)
//	-reqs N     requests per serve-suite pass (default 2000)
//	-conc N     concurrent clients in the serve suite (default 64)
//	-cancels N  cancel probes in the serve suite's cold pass (default 8)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/fault"
	"repro/internal/protogen"
	"repro/internal/repair"
	"repro/internal/serve"
	"repro/internal/spec"
	"repro/internal/verify"
	"repro/internal/workloads"
)

// Measurement is one scenario's record.
type Measurement struct {
	Scenario       string  `json:"scenario"`
	States         int     `json:"states"`
	Transitions    int64   `json:"transitions"`
	WallMS         float64 `json:"wallMs"`
	StatesPerSec   float64 `json:"statesPerSec"`
	BytesPerState  float64 `json:"bytesPerState"`
	AllocsPerState float64 `json:"allocsPerState"`
	Violations     int     `json:"violations"`
	Incomplete     string  `json:"incomplete,omitempty"`
	// Spill telemetry for memory-budgeted scenarios (absent when the
	// run stayed in RAM).
	MemBudgetMB   int64 `json:"memBudgetMB,omitempty"`
	SpilledStates int   `json:"spilledStates,omitempty"`
	SpillMB       int64 `json:"spillMB,omitempty"`
}

// FaultMeasurement is one fault-suite scenario's record.
type FaultMeasurement struct {
	Scenario     string  `json:"scenario"`
	Runs         int     `json:"runs"`
	WallMS       float64 `json:"wallMs"`
	RunsPerSec   float64 `json:"runsPerSec"`
	BytesPerRun  float64 `json:"bytesPerRun"`
	AllocsPerRun float64 `json:"allocsPerRun"`
	// Outcome histogram over the campaign's faulty runs.
	Survived       int `json:"survived"`
	AbortedCleanly int `json:"abortedCleanly"`
	Corrupted      int `json:"corrupted"`
	Deadlocked     int `json:"deadlocked"`
}

// RepairMeasurement is one repair-suite scenario's record.
type RepairMeasurement struct {
	Scenario string `json:"scenario"`
	// Iterations is the number of verify-classify-regenerate turns the
	// loop took (including the final clean verification).
	Iterations int `json:"iterations"`
	// Mutations lists the applied grammar members in order.
	Mutations []string `json:"mutations"`
	// FinalTier is the highest escalation tier the loop reached.
	FinalTier int `json:"finalTier"`
	// StatesTotal sums the model checker's stored states across every
	// iteration — the loop's whole verification workload; StatesFinal is
	// the final (clean) iteration alone.
	StatesTotal int     `json:"statesTotal"`
	StatesFinal int     `json:"statesFinal"`
	WallMS      float64 `json:"wallMs"`
	// Exhaustive reports whether the final verdict completed its search.
	Exhaustive bool `json:"exhaustive"`
}

// ServeMeasurement is one serve-suite scenario's record: the load
// harness's aggregate over an in-process ifsynd instance.
type ServeMeasurement struct {
	Scenario string `json:"scenario"`
	serve.LoadReport
}

// Run is one invocation of this tool: a labelled set of measurements.
type Run struct {
	Label     string              `json:"label"`
	GoVersion string              `json:"goVersion"`
	CPUs      int                 `json:"cpus"`
	Workers   int                 `json:"workers"`
	Scenarios []Measurement       `json:"scenarios,omitempty"`
	Fault     []FaultMeasurement  `json:"fault,omitempty"`
	Repair    []RepairMeasurement `json:"repair,omitempty"`
	Serve     []ServeMeasurement  `json:"serve,omitempty"`
}

// File is the committed BENCH_verify.json / BENCH_fault.json shape.
type File struct {
	Comment string `json:"comment"`
	Runs    []Run  `json:"runs"`
}

const fileComment = "Model-checker performance trajectory; append a run with: go run ./tools/bench -label <pr-label>"

const faultFileComment = "Fault-campaign performance trajectory; append a run with: go run ./tools/bench -suite fault -label <pr-label>"

const repairFileComment = "CEGIS repair trajectory; append a run with: go run ./tools/bench -suite repair -label <pr-label>"

const serveFileComment = "ifsynd daemon load trajectory; append a run with: go run ./tools/bench -suite serve -label <pr-label>"

// measureServe load-tests an in-process ifsynd: a cold pass over the
// mixed workload (misses, dedups and cancel probes dominate) followed
// by a warm pass against the now-populated cache (replay throughput).
func measureServe(workers, reqs, conc, cancels int) ([]ServeMeasurement, error) {
	srv, err := serve.New(serve.Config{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	cold, err := serve.RunLoad(context.Background(), serve.LoadConfig{
		BaseURL:      hs.URL,
		Requests:     reqs,
		Concurrency:  conc,
		CancelProbes: cancels,
	})
	if err != nil {
		return nil, fmt.Errorf("serve cold: %w", err)
	}
	warm, err := serve.RunLoad(context.Background(), serve.LoadConfig{
		BaseURL:     hs.URL,
		Requests:    reqs,
		Concurrency: conc,
	})
	if err != nil {
		return nil, fmt.Errorf("serve warm: %w", err)
	}
	if cold.Errors > 0 || warm.Errors > 0 {
		return nil, fmt.Errorf("serve load errors: cold %d, warm %d", cold.Errors, warm.Errors)
	}
	return []ServeMeasurement{
		{Scenario: "mixed-cold", LoadReport: *cold},
		{Scenario: "mixed-warm", LoadReport: *warm},
	}, nil
}

// scenario builds a fresh refined system (protogen mutates the input
// spec, so each measurement synthesizes from scratch) plus the checker
// configuration to measure.
type scenario struct {
	name  string
	build func(workers int) (*spec.System, verify.Config, error)
}

func refinedPQ(robust bool, workers int, vcfg verify.Config) (*spec.System, verify.Config, error) {
	sys, _ := workloads.PQ()
	rep, err := core.Synthesize(sys, core.Options{
		Bus:     core.Options{}.Bus,
		Robust:  robust,
		Workers: workers,
	})
	if err != nil {
		return nil, vcfg, err
	}
	for _, br := range rep.Buses {
		vcfg.AbortVars = append(vcfg.AbortVars, br.Ref.AbortKeys()...)
	}
	vcfg.Workers = workers
	return sys, vcfg, nil
}

func scenarios() []scenario {
	return []scenario{
		{"baseline-drop1", func(w int) (*spec.System, verify.Config, error) {
			return refinedPQ(false, w, verify.Config{MaxDrops: 1})
		}},
		{"robust-drop0", func(w int) (*spec.System, verify.Config, error) {
			return refinedPQ(true, w, verify.Config{})
		}},
		{"robust-drop1-100k", func(w int) (*spec.System, verify.Config, error) {
			return refinedPQ(true, w, verify.Config{MaxDrops: 1, MaxStates: 100_000})
		}},
		// The exhaustive drop-1 space (~679k states) under a 64 MiB
		// budget: most of the frontier's history lives on disk, so this
		// is the spill path's headline number.
		{"robust-drop1-full", func(w int) (*spec.System, verify.Config, error) {
			return refinedPQ(true, w, verify.Config{
				MaxDrops: 1, MaxStates: 1_500_000, MemBudget: 64 << 20,
			})
		}},
		// The exhaustive drop-2 space (~3.9M states) under 256 MiB —
		// beyond what the in-RAM store could previously hold comfortably.
		{"robust-drop2", func(w int) (*spec.System, verify.Config, error) {
			return refinedPQ(true, w, verify.Config{
				MaxDrops: 2, MaxStates: 4_000_000, MemBudget: 256 << 20,
			})
		}},
	}
}

// faultScenario builds a fresh refined system plus the bus and abort
// keys a campaign needs. Each measurement synthesizes from scratch for
// the same reason the verify scenarios do: protogen mutates the spec.
type faultScenario struct {
	name  string
	build func(workers int) (*spec.System, *spec.Bus, []string, error)
}

func faultPQ(parity bool, workers int) (*spec.System, *spec.Bus, []string, error) {
	sys, _ := workloads.PQ()
	rep, err := core.Synthesize(sys, core.Options{
		Robust:  true,
		Parity:  parity,
		Workers: workers,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if len(rep.Buses) == 0 {
		return nil, nil, nil, fmt.Errorf("synthesis produced no bus")
	}
	br := rep.Buses[0]
	var abortVars []string
	if br.Ref != nil {
		abortVars = br.Ref.AbortKeys()
	}
	return sys, br.Bus, abortVars, nil
}

func faultScenarios() []faultScenario {
	robust := func(w int) (*spec.System, *spec.Bus, []string, error) {
		return faultPQ(false, w)
	}
	parity := func(w int) (*spec.System, *spec.Bus, []string, error) {
		return faultPQ(true, w)
	}
	return []faultScenario{
		{"robust-pooled", robust},
		{"robust-parity-pooled", parity},
	}
}

func measureFault(sc faultScenario, runs, workers, reps int) (FaultMeasurement, error) {
	best := FaultMeasurement{Scenario: sc.name}
	for r := 0; r < reps; r++ {
		sys, bus, abortVars, err := sc.build(workers)
		if err != nil {
			return best, fmt.Errorf("%s: synthesis: %w", sc.name, err)
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		rep, err := fault.Campaign(sys, bus, fault.Config{
			Runs:      runs,
			Seed:      1,
			AbortVars: abortVars,
			Workers:   workers,
		})
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return best, fmt.Errorf("%s: campaign: %w", sc.name, err)
		}
		m := FaultMeasurement{
			Scenario:       sc.name,
			Runs:           rep.Runs,
			WallMS:         float64(wall.Microseconds()) / 1000,
			RunsPerSec:     float64(rep.Runs) / wall.Seconds(),
			BytesPerRun:    float64(m1.TotalAlloc-m0.TotalAlloc) / float64(rep.Runs),
			AllocsPerRun:   float64(m1.Mallocs-m0.Mallocs) / float64(rep.Runs),
			Survived:       rep.Totals[fault.Survived],
			AbortedCleanly: rep.Totals[fault.AbortedCleanly],
			Corrupted:      rep.Totals[fault.Corrupted],
			Deadlocked:     rep.Totals[fault.Deadlocked],
		}
		if r == 0 || m.WallMS < best.WallMS {
			best = m
		}
	}
	return best, nil
}

// repairScenario names a base generation config the repair loop starts
// from; every scenario runs on PQSolo at drop budget 1 so the final
// verdict is exhaustive.
type repairScenario struct {
	name string
	base protogen.Config
}

func repairScenarios() []repairScenario {
	return []repairScenario{
		// The headline tier-1 repair: the hardened protocol's lost-ack
		// window closes with local knobs.
		{"robust-solo-drop1", protogen.Config{
			Protocol: spec.FullHandshake, Robust: true,
			TimeoutClocks: 8, MaxRetries: 2,
		}},
		// The escalating run: no local knob fixes the half handshake's
		// missed-pulse hazard, so the loop climbs to the tier-3 protocol
		// reselection.
		{"half-solo-drop1", protogen.Config{Protocol: spec.HalfHandshake}},
	}
}

func measureRepair(sc repairScenario, workers, reps int) (RepairMeasurement, error) {
	best := RepairMeasurement{Scenario: sc.name}
	for r := 0; r < reps; r++ {
		sys, bus := workloads.PQSolo()
		builder := func(cfg protogen.Config) (*spec.System, []string, error) {
			fresh := spec.Clone(sys)
			ref, err := protogen.Generate(fresh, fresh.Buses[0], cfg)
			if err != nil {
				return nil, nil, err
			}
			return fresh, ref.AbortKeys(), nil
		}
		start := time.Now()
		res, err := repair.Run(builder, sc.base, repair.Config{
			Verify: verify.Config{MaxDrops: 1, Workers: workers},
			Cost: &repair.CostModel{
				Channels: bus.Channels,
				Width:    bus.Width,
				Est:      estimate.New(sys.Channels),
			},
		})
		wall := time.Since(start)
		if err != nil {
			return best, fmt.Errorf("%s: repair: %w", sc.name, err)
		}
		if !res.Verified() {
			return best, fmt.Errorf("%s: repair did not converge:\n%s", sc.name, res.Format())
		}
		m := RepairMeasurement{
			Scenario:   sc.name,
			Iterations: len(res.Iterations),
			FinalTier:  res.FinalTier,
			WallMS:     float64(wall.Microseconds()) / 1000,
			Exhaustive: res.Report.IncompleteReason == "",
		}
		for _, mu := range res.Mutations {
			m.Mutations = append(m.Mutations, mu.String())
		}
		for _, it := range res.Iterations {
			m.StatesTotal += it.States
		}
		if n := len(res.Iterations); n > 0 {
			m.StatesFinal = res.Iterations[n-1].States
		}
		if r == 0 || m.WallMS < best.WallMS {
			best = m
		}
	}
	return best, nil
}

func measure(sc scenario, workers, reps int) (Measurement, error) {
	best := Measurement{Scenario: sc.name}
	for r := 0; r < reps; r++ {
		sys, vcfg, err := sc.build(workers)
		if err != nil {
			return best, fmt.Errorf("%s: synthesis: %w", sc.name, err)
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		rep, err := verify.Check(sys, vcfg)
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return best, fmt.Errorf("%s: check: %w", sc.name, err)
		}
		m := Measurement{
			Scenario:       sc.name,
			States:         rep.States,
			Transitions:    rep.Transitions,
			WallMS:         float64(wall.Microseconds()) / 1000,
			StatesPerSec:   float64(rep.States) / wall.Seconds(),
			BytesPerState:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(rep.States),
			AllocsPerState: float64(m1.Mallocs-m0.Mallocs) / float64(rep.States),
			Violations:     len(rep.Violations),
			Incomplete:     rep.IncompleteReason,
			MemBudgetMB:    vcfg.MemBudget >> 20,
			SpilledStates:  rep.SpilledStates,
			SpillMB:        rep.SpillBytes >> 20,
		}
		if r == 0 || m.WallMS < best.WallMS {
			best = m
		}
	}
	return best, nil
}

func main() {
	label := flag.String("label", "dev", "run label recorded in the output file")
	suite := flag.String("suite", "verify", "benchmark suite: verify | fault | repair | serve")
	out := flag.String("o", "", "output file (default BENCH_<suite>.json)")
	fresh := flag.Bool("fresh", false, "overwrite the output file instead of appending")
	reps := flag.Int("reps", 3, "repetitions per scenario (best wall time wins)")
	var workers int
	flag.IntVar(&workers, "j", 0, "worker goroutines (0 = all CPUs)")
	flag.IntVar(&workers, "workers", 0, "alias for -j")
	runs := flag.Int("runs", 100_000, "faulty runs per fault-suite scenario")
	serveReqs := flag.Int("reqs", 2000, "requests per serve-suite pass")
	serveConc := flag.Int("conc", 64, "concurrent clients in the serve suite")
	serveCancels := flag.Int("cancels", 8, "cancel probes in the serve suite's cold pass")
	flag.Parse()

	run := Run{
		Label:     *label,
		GoVersion: runtime.Version(),
		CPUs:      runtime.NumCPU(),
		Workers:   workers,
	}
	comment := fileComment
	file := *out
	switch *suite {
	case "verify":
		if file == "" {
			file = "BENCH_verify.json"
		}
		for _, sc := range scenarios() {
			m, err := measure(sc, workers, *reps)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			fmt.Printf("%-18s %7d states %8d transitions %9.1f ms %10.0f states/s %8.0f B/state %6.1f allocs/state\n",
				m.Scenario, m.States, m.Transitions, m.WallMS, m.StatesPerSec, m.BytesPerState, m.AllocsPerState)
			run.Scenarios = append(run.Scenarios, m)
		}
	case "fault":
		if file == "" {
			file = "BENCH_fault.json"
		}
		comment = faultFileComment
		for _, sc := range faultScenarios() {
			m, err := measureFault(sc, *runs, workers, *reps)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			fmt.Printf("%-22s %8d runs %9.1f ms %9.0f runs/s %8.0f B/run %7.1f allocs/run  %d/%d/%d/%d surv/abort/corr/dead\n",
				m.Scenario, m.Runs, m.WallMS, m.RunsPerSec, m.BytesPerRun, m.AllocsPerRun,
				m.Survived, m.AbortedCleanly, m.Corrupted, m.Deadlocked)
			run.Fault = append(run.Fault, m)
		}
	case "repair":
		if file == "" {
			file = "BENCH_repair.json"
		}
		comment = repairFileComment
		for _, sc := range repairScenarios() {
			m, err := measureRepair(sc, workers, *reps)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			fmt.Printf("%-18s %2d iterations  tier %d  %7d states total %7d final %9.1f ms  %s\n",
				m.Scenario, m.Iterations, m.FinalTier, m.StatesTotal, m.StatesFinal, m.WallMS,
				strings.Join(m.Mutations, "+"))
			run.Repair = append(run.Repair, m)
		}
	case "serve":
		if file == "" {
			file = "BENCH_serve.json"
		}
		comment = serveFileComment
		ms, err := measureServe(workers, *serveReqs, *serveConc, *serveCancels)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		for _, m := range ms {
			fmt.Printf("%-12s %6d reqs %8.0f reqs/s  p50 %7.2f ms  p99 %8.2f ms  hit %4.0f%%  cancel(avg/max) %.1f/%.1f ms\n",
				m.Scenario, m.Requests, m.ReqsPerSec, m.P50Ms, m.P99Ms,
				m.CacheHitRate*100, m.CancelServerAvgMs, m.CancelServerMaxMs)
			run.Serve = append(run.Serve, m)
		}
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown suite %q (want verify, fault, repair or serve)\n", *suite)
		os.Exit(1)
	}

	var f File
	if !*fresh {
		if data, err := os.ReadFile(file); err == nil {
			if err := json.Unmarshal(data, &f); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s exists but is not parseable (%v); use -fresh to overwrite\n", file, err)
				os.Exit(1)
			}
		}
	}
	f.Comment = comment
	f.Runs = append(f.Runs, run)
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(file, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("recorded run %q in %s\n", *label, file)
}
