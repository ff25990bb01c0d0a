// Command bench is the repository's end-to-end benchmark. It runs one
// workload per process, from generated .sys text to verdict, through
// the entry point the workload's users call: an in-process ifsynd with
// the default serve.Config over loopback HTTP, core.Synthesize, or
// fault.Campaign. It checks every output and prints one JSON object as
// the last line of standard output:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}
//
// Run it from the repository root (run.sh builds it first):
//
//	bash bench/run.sh --workload synth-cold --seed 1 --seconds 12 --trace 0
//
// --trace 0 measures the end-to-end metrics for --seconds with tracing
// off. --trace 1 instead replays a fixed prefix of the same inputs one
// at a time through the staged library calls, timing each call from
// outside, and reports the per-layer metrics; --spans FILE also writes
// the recorded spans. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, fullSizes))
}

// metricDef is a metric's name and unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a run with --trace 0.
var endToEnd = []metricDef{
	{"ops_per_s", "op/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"rss_p90_mib", "MiB"},
	{"setup_s", "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line a run prints.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer, size sizes) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), " | "))
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 12, "how long the run measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	spans := fs.String("spans", "", "traced run: also write the spans as JSON to this file")
	root := fs.String("root", ".", "repository root (holds testdata/)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloadList {
		if workloadList[i].name == *name {
			w = &workloadList[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "bench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), " | "))
		return 2
	}
	e := &env{seed: *seed, seconds: *seconds, root: *root, nproc: runtime.NumCPU(), size: size, log: stderr}
	var err error
	if e.speed, err = newSpeedProbe(e.nproc); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}

	// Set-up repeats so setup_s is a median, each scaled by a speed probe
	// run just before it; all but the last state are closed again.
	var r runner
	var setups []float64
	for i := 0; i < size.setupReps; i++ {
		if r != nil {
			r.close()
		}
		speed := e.speed.measure()
		t0 := time.Now()
		if r, err = w.setup(e); err != nil {
			fmt.Fprintf(stderr, "bench: %s set-up: %v\n", w.name, err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds()*speed)
	}
	defer r.close()
	// Set-up garbage must not count as the measured phase's memory; the
	// warm-up faults in again what the measured phase needs.
	runtime.GC()
	debug.FreeOSMemory()
	fmt.Fprintf(stderr, "%s seed %d: inputs_sha256 %s, nproc %d\n", w.name, e.seed, inputsDigest(r.inputs(e)), e.nproc)

	out := output{Metrics: map[string]metricValue{}}
	if *trace == 1 {
		err = traced(e, r, &out, *spans)
	} else {
		err = timed(e, w, r, &out, median(setups))
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
	}
	out.Correct = err == nil && out.Failed == 0 && out.Attempted > 0
	b, _ := json.Marshal(out)
	fmt.Fprintf(stdout, "%s\n", b)
	if !out.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloadList {
		names = append(names, w.name)
	}
	return names
}

// timed measures the end-to-end metrics.
func timed(e *env, w *workload, r runner, out *output, setup float64) error {
	res, err := r.timed(e)
	out.Attempted, out.Failed = res.attempted, res.failed
	vals := map[string]float64{
		"ops_per_s":       res.throughput(),
		"latency_p50_ms":  res.latency(0.5),
		"latency_tail_ms": res.latency(w.tail),
		"rss_p90_mib":     res.rss,
		"setup_s":         setup,
	}
	for _, d := range endToEnd {
		out.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	fmt.Fprintf(e.log, "%s: %d ops measured, %d attempted; %.4g work/s; latency p50 %.3f ms and p%s %.3f ms over %d samples; RSS p90 %.1f MiB; setup %.3f s\n",
		w.name, len(res.ops), res.attempted, vals["ops_per_s"], vals["latency_p50_ms"],
		strconv.FormatFloat(100*w.tail, 'f', -1, 64), vals["latency_tail_ms"], len(res.ops), res.rss, setup)
	fmt.Fprintf(e.log, "host speed index: median %.3f, range %.3f..%.3f over %d probes (times above are scaled by it)\n",
		median(e.speed.samples), slices.Min(e.speed.samples), slices.Max(e.speed.samples), len(e.speed.samples))
	if err == nil {
		err = res.firstErr
	}
	return err
}

// traced measures the per-layer metrics and checks the replay: the
// staged calls' outputs (checked per input) and the share of each
// request's time no staged call covers.
func traced(e *env, r runner, out *output, spansFile string) error {
	t := newTracer()
	if err := r.traced(e, t); err != nil {
		return err
	}
	vals := t.layerMetrics(e)
	for _, d := range perLayer {
		out.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	if err := t.checkAttribution(); err != nil {
		t.fail(err)
	}
	out.Attempted, out.Failed = t.attempted, t.failed
	fmt.Fprintf(e.log, "traced: %d inputs over %d passes, %d spans, %.2f%% unattributed; host speed index %.3f at set-up (per-layer times are not scaled)\n",
		t.attempted, t.pass+1, len(t.spans), vals["unattributed.pct"], median(e.speed.samples))
	if spansFile != "" {
		if err := t.writeSpans(spansFile); err != nil {
			return err
		}
	}
	return t.firstErr
}

// quantile is the Harrell-Davis estimate of the p-quantile of vals
// weighted by weights (nil: equal weights). It is a weighted mean of
// the sorted values: the value spanning the cumulative weight share
// (t0, t1] contributes the probability a Beta((n+1)p, (n+1)(1-p))
// variable, n the effective sample size, gives that span. Averaging
// the order statistics near p rather than taking one of them gives the
// estimate a smaller spread between runs, most where p lands between
// two groups of values.
func quantile(vals, weights []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	idx := make([]int, len(vals))
	var total, squares float64
	for i := range idx {
		idx[i] = i
		w := weight(weights, i)
		total += w
		squares += w * w
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	n := total * total / squares
	a, b := p*(n+1), (1-p)*(n+1)
	// Beyond ten standard deviations of the Beta variable the
	// probability is below double precision.
	sd := math.Sqrt(p * (1 - p) / (n + 2))
	var cum, prev, q float64
	for _, i := range idx {
		cum += weight(weights, i) / total
		c := 1.0
		switch t := min(cum, 1); {
		case t < p-10*sd:
			c = 0
		case t <= p+10*sd:
			c = betaInc(a, b, t)
		}
		q += (c - prev) * vals[i]
		prev = c
	}
	return q
}

func weight(weights []float64, i int) float64 {
	if weights == nil {
		return 1
	}
	return weights[i]
}

// betaInc is the regularized incomplete beta function I_x(a, b), by
// Lentz's continued fraction on whichever side of the mean converges.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 10000; m++ {
		m2 := 2 * m
		num := m * (b - m) * x / ((a - 1 + m2) * (a + m2))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1 + m2))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		if math.Abs(d*c-1) < 1e-15 {
			break
		}
	}
	return h
}

func median(xs []float64) float64 { return quantile(xs, nil, 0.5) }
