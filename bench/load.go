package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

// daemon is an in-process ifsynd with the default serve.Config on a
// loopback listener, plus a client that keeps at most `conns`
// connections to it.
type daemon struct {
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
}

func startDaemon(conns int) (*daemon, error) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return &daemon{
		srv:    srv,
		hs:     httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: tr, Timeout: 2 * time.Minute},
	}, nil
}

// close stops the listener, waits for open connections to finish and
// stops the job workers.
func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.hs.Close()
	d.srv.Close()
}

// reply is one /v1/query response.
type reply struct {
	status int
	cache  string // X-Cache: miss | hit | dedup
	body   []byte
}

func (d *daemon) query(body []byte) (reply, error) {
	resp, err := d.client.Post(d.hs.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: b}, nil
}

// result decodes a 200 reply with the expected cache disposition.
func (r reply) result(wantCache string) (*serve.ResultJSON, error) {
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if r.cache != wantCache {
		return nil, fmt.Errorf("X-Cache %q, want %q", r.cache, wantCache)
	}
	var res serve.ResultJSON
	if err := json.Unmarshal(r.body, &res); err != nil {
		return nil, fmt.Errorf("decode body: %w", err)
	}
	return &res, nil
}

// queryMiss sends req, which must be answered as a cache miss whose
// body passes check, and returns the round-trip time.
func (d *daemon) queryMiss(req *serve.Request, check func(*serve.ResultJSON) error) (time.Duration, error) {
	body := marshal(req)
	t0 := time.Now()
	rep, err := d.query(body)
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	res, err := rep.result("miss")
	if err != nil {
		return lat, err
	}
	return lat, check(res)
}

// metrics scrapes the daemon's /metrics counters.
func (d *daemon) metrics() (map[string]int64, error) {
	resp, err := d.client.Get(d.hs.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if n, err := strconv.ParseInt(val, 10, 64); ok && err == nil {
			out[name] = n
		}
	}
	return out, sc.Err()
}

// opRecord is one measured, successful op.
type opRecord struct {
	lat  time.Duration // what the caller waited
	work float64       // work units completed
	// stratum is the catalog cell a verify-mixed op drew, 0 elsewhere:
	// the metrics weigh every stratum the same.
	stratum int
	// speed is the host speed index measured last before the op; see
	// speed.go.
	speed float64
}

// scaled is the op's latency in seconds at the reference host speed.
func (o opRecord) scaled() float64 { return o.lat.Seconds() * o.speed }

// loopResult is what a closed loop measured.
type loopResult struct {
	ops       []opRecord
	attempted int
	failed    int
	firstErr  error
	// rss is the 90th percentile of the resident set size sampled over
	// the measured phase, in MiB, less the speed probe's buffers.
	rss float64
}

// closedLoop runs op back to back from one caller for warm plus
// e.seconds; an op started before the deadline runs to completion, as
// a waiting caller's would. Ops started during warm-up are checked but
// not measured: they let the heap, caches and connections reach their
// steady state. op returns the latency the caller saw, the work units
// it completed and its stratum. From the end of the warm-up on, the
// speed probe runs between ops every probeEvery; its time does not
// count towards e.seconds.
//
// One caller, not nproc: on the 2-vCPU reference box a second client
// shares the CPUs with the first one's requests and with the collector
// or not, so its latency doubles or not. Over ten seeds that put the
// spread (IQR over median) of serve-warm's median latency at 17%, and
// at 9% with one client; the parallelism of one job is measured by
// verify-deep, whose proofs run at nproc engine workers.
func closedLoop(e *env, warm time.Duration, op func(i int) (opRecord, error)) *loopResult {
	res := &loopResult{}
	start := time.Now().Add(warm)
	deadline := start.Add(time.Duration(e.seconds * float64(time.Second)))
	stop := make(chan struct{})
	rss := make(chan []float64)
	go sampleRSS(start, stop, rss)
	var speed float64
	nextProbe := start
	for i := 0; ; i++ {
		if now := time.Now(); !now.Before(nextProbe) {
			speed = e.speed.measure()
			deadline = deadline.Add(time.Since(now))
			nextProbe = time.Now().Add(probeEvery)
		}
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		rec, err := op(i)
		res.attempted++
		switch {
		case err != nil:
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("op %d: %w", i, err)
			}
		case !t0.Before(start):
			rec.speed = speed
			res.ops = append(res.ops, rec)
		}
	}
	close(stop)
	res.rss = quantile(<-rss, nil, 0.9) - e.speed.bufferMiB()
	return res
}

// probeEvery is the measured time between two speed probes.
const probeEvery = 500 * time.Millisecond

// sampleRSS samples the resident set size every 50 ms from start until
// stop closes, then sends the samples, at least one.
func sampleRSS(start time.Time, stop <-chan struct{}, out chan<- []float64) {
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	var samples []float64
	for {
		select {
		case <-stop:
			out <- append(samples, residentMiB())
			return
		case now := <-tick.C:
			if now.After(start) {
				samples = append(samples, residentMiB())
			}
		}
	}
}

// residentMiB is the process's resident set size.
func residentMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// strata groups the measured ops by stratum.
func (r *loopResult) strata() map[int][]opRecord {
	s := map[int][]opRecord{}
	for _, o := range r.ops {
		s[o.stratum] = append(s[o.stratum], o)
	}
	return s
}

// latency is the p-quantile of the scaled latencies in milliseconds.
// Each stratum weighs the same, so a run that ends part-way through a
// block of verify-mixed's catalog does not over-weigh the cells it
// happened to reach; with one stratum every op weighs the same.
func (r *loopResult) latency(p float64) float64 {
	var lat, weights []float64
	for _, ops := range r.strata() {
		for _, o := range ops {
			lat = append(lat, 1e3*o.scaled())
			weights = append(weights, 1/float64(len(ops)))
		}
	}
	return quantile(lat, weights, p)
}

// throughput is the closed loop's rate: mean work over mean scaled
// latency, where each stratum's means weigh the same, so verify-mixed
// gets the rate of its catalog's mix whatever part of a block the run
// ended in. With one stratum it is the work done over the scaled time
// spent waiting.
func (r *loopResult) throughput() float64 {
	var work, lat float64
	for _, ops := range r.strata() {
		var w, l float64
		for _, o := range ops {
			w += o.work
			l += o.scaled()
		}
		work += w / float64(len(ops))
		lat += l / float64(len(ops))
	}
	if lat == 0 {
		return 0
	}
	return work / lat
}
