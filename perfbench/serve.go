package main

// The serve workload starts camserve as a child process with its
// default flags on a port the harness owns, and drives POST /run with an
// equal-weight MLP/HNN/RNN mix drawn from the seed over at most nproc
// connections. Rounds alternate a closed loop, for throughput, with an
// open loop on an evenly spaced schedule, for latency timed from each
// request's intended send time.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cambricon/internal/bench"
	"cambricon/internal/metrics"
)

const (
	// serveRate is the open-loop arrival rate: about a fifth of the
	// closed-loop saturation (~1900 req/s on a 2-core host), low enough
	// that the generator, which shares the cores with the server, keeps
	// its schedule.
	serveRate = 400
	// serveClosedShare is the share of the measured seconds spent in the
	// closed loop; the open loop takes the rest.
	serveClosedShare = 0.4
	// serveRounds is how many times the run alternates closed and open
	// loop, so both sample the whole run rather than one end of it.
	serveRounds = 6
	// serveWarmRuns is how many requests of each benchmark every
	// connection sends during warm-up, so prepared snapshots, predecoded
	// programs and one pooled machine per connection exist before timing.
	serveWarmRuns = 10
	// serveSuiteSeed is camserve's default -seed, for the in-process
	// reference cycles.
	serveSuiteSeed = 7
	// maxLateP50 bounds the generator's median schedule lateness; a run
	// whose generator fell further behind measured the harness, not
	// camserve. Short stalls that delay the generator and the server
	// alike (the host descheduling the VM's CPUs) show in
	// loadgen.late_p99_ms instead.
	maxLateP50 = time.Millisecond
)

var serveMix = []string{"MLP", "HNN", "RNN"}

// freeAddr picks a loopback port that nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return "", err
	}
	if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		c.Close()
		return "", fmt.Errorf("port %s already answers; refusing to start camserve on it", addr)
	}
	return addr, nil
}

// startCamserve starts camserve with its default flags on a fresh port
// and waits until it is ready, failing if the process exits first.
func startCamserve(bin string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	c, err := spawn(bin, "-addr", addr)
	if err != nil {
		return nil, err
	}
	c.addr = addr
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if err := c.alive(); err != nil {
			return nil, err
		}
		resp, err := client.Get("http://" + addr + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("camserve on %s not ready after 60s; output:\n%s", addr, c.out)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// A server that answered but is not this child (it lost the port
	// race) shows as the child exiting.
	return c, c.alive()
}

// ---- client ----

// runReply is the part of the POST /run reply the harness checks.
type runReply struct {
	ID        int64  `json:"id"`
	Benchmark string `json:"benchmark"`
	Status    string `json:"status"`
	Cycles    int64  `json:"cycles"`
	Error     string `json:"error"`
}

// server is the harness's view of one camserve child: its address, a
// client with at most conns connections, and the reference cycles.
type server struct {
	base   string
	client *http.Client
	want   map[string]int64
	bodies map[string][]byte
}

func newServer(c *child, conns int, want map[string]int64) *server {
	s := &server{
		base: "http://" + c.addr,
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		want:   want,
		bodies: map[string][]byte{},
	}
	for _, b := range serveMix {
		s.bodies[b] = []byte(`{"benchmark":"` + b + `"}`)
	}
	return s
}

// run sends one POST /run and checks the reply: status ok and the
// in-process cycles for the benchmark.
func (s *server) run(bench string) (runReply, error) {
	var r runReply
	resp, err := s.client.Post(s.base+"/run", "application/json", bytes.NewReader(s.bodies[bench]))
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return r, fmt.Errorf("POST /run %s: HTTP %d: %w", bench, resp.StatusCode, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
	switch {
	case resp.StatusCode != http.StatusOK || r.Status != "ok":
		return r, fmt.Errorf("POST /run %s: HTTP %d status %q %s", bench, resp.StatusCode, r.Status, r.Error)
	case r.Benchmark != bench || r.Cycles != s.want[bench]:
		return r, fmt.Errorf("POST /run %s: reply for %s with %d cycles, in-process run took %d", bench, r.Benchmark, r.Cycles, s.want[bench])
	}
	return r, nil
}

func (s *server) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// metrics reads GET /metrics and sums each family over its labels.
func (s *server) metrics() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// ---- load ----

// mix draws the benchmark sequence of one load stream from the seed.
func mix(seed, stream uint64) func() string {
	rng := rand.New(rand.NewPCG(seed, 0x73657276^stream))
	return func() string { return serveMix[rng.IntN(len(serveMix))] }
}

// warm sends serveWarmRuns requests of each benchmark on every
// connection at once.
func (s *server) warm(conns int) error {
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < serveWarmRuns && errs[w] == nil; i++ {
				for _, b := range serveMix {
					if _, err := s.run(b); err != nil {
						errs[w] = err
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// closedLoop keeps conns requests in flight for d and returns the
// completed and failed requests and the time they took.
func (s *server) closedLoop(rep *report, c *child, conns int, seed uint64, d time.Duration) (ok, failed int64, elapsed time.Duration) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			next := mix(seed, uint64(w))
			var nOK, nFail int64
			for time.Now().Before(deadline) {
				if _, err := s.run(next()); err != nil {
					nFail++
					rep.wrongf("serve closed loop: %v", err)
					if c.alive() != nil {
						break
					}
					continue
				}
				nOK++
			}
			mu.Lock()
			ok += nOK
			failed += nFail
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return ok, failed, time.Since(start)
}

// ticket is one scheduled open-loop request.
type ticket struct {
	bench string
	due   time.Time
}

// openResult is one open-loop phase: latency from each request's due
// time, the generator's lateness, and (traced) each request's bundle.
type openResult struct {
	latency []float64
	late    []float64
	traces  []requestTrace
	failed  int64
}

func (r *openResult) add(o openResult) {
	r.latency = append(r.latency, o.latency...)
	r.late = append(r.late, o.late...)
	r.traces = append(r.traces, o.traces...)
	r.failed += o.failed
}

// openLoop sends serveRate requests per second on an evenly spaced
// schedule for d, over conns connections. With traced set, each
// connection fetches every request's GET /runs/{id} bundle after the
// reply, outside the request's latency.
func (s *server) openLoop(rep *report, c *child, conns int, seed uint64, d time.Duration, traced bool) openResult {
	n := int(d.Seconds() * serveRate)
	tickets := make(chan ticket, n) // the whole schedule fits: the generator never blocks
	var res openResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tickets {
				queued := ms(time.Since(t.due))
				r, err := s.run(t.bench)
				lat := ms(time.Since(t.due))
				var tr requestTrace
				if err == nil && traced {
					tr, err = s.trace(r.ID, lat)
					tr.queued = queued
				}
				mu.Lock()
				if err != nil {
					res.failed++
					rep.wrongf("serve open loop: %v", err)
				} else {
					res.latency = append(res.latency, lat)
					if traced {
						res.traces = append(res.traces, tr)
					}
				}
				mu.Unlock()
			}
		}()
	}
	next := mix(seed, 1<<32)
	start := time.Now().Add(time.Millisecond)
	interval := time.Second / serveRate
	for i := 0; i < n && c.alive() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		sleepUntil(due)
		res.late = append(res.late, ms(time.Since(due)))
		tickets <- ticket{bench: next(), due: due}
	}
	close(tickets)
	wg.Wait()
	return res
}

// sleepUntil blocks the calling thread in nanosleep until t. A thread
// sleep wakes within about 0.1ms on a busy 2-core host, where the
// runtime timer behind time.Sleep wakes about 0.5ms late, which would
// count as latency of every open-loop request.
func sleepUntil(t time.Time) {
	for wait := time.Until(t); wait > 0; wait = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep; the loop resumes it
	}
}

// ---- workload ----

// serveReference runs the mix's benchmarks in process, on a suite built
// like camserve's, for the cycles every reply must carry.
func serveReference() (map[string]int64, error) {
	s := bench.NewSuite(serveSuiteSeed)
	want := map[string]int64{}
	for _, b := range serveMix {
		st, err := s.Stats(b)
		if err != nil {
			return nil, err
		}
		want[b] = st.Cycles
	}
	return want, nil
}

// serveSetup starts camserve and warms it up; earlier rounds' children
// are stopped, the last one is returned running.
func serveSetup(cfg config, rounds int, want map[string]int64) (*child, *server, float64, error) {
	var last *child
	var srv *server
	c, setup, err := setupMedian("serve", rounds, func() (*child, error) {
		if last != nil {
			last.stop()
		}
		c, err := startCamserve(cfg.camserve)
		if err != nil {
			return nil, err
		}
		last = c
		srv = newServer(c, cfg.conns, want)
		if err := srv.warm(cfg.conns); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		return c, nil
	})
	return c, srv, setup, err
}

func runServe(cfg config, rep *report) error {
	want, err := serveReference()
	if err != nil {
		return err
	}
	c, srv, setup, err := serveSetup(cfg, setupRounds, want)
	if err != nil {
		return err
	}
	defer c.stop()
	round := time.Duration(cfg.seconds * float64(time.Second) / serveRounds)
	closed := time.Duration(float64(round) * serveClosedShare)
	var done, failed int64
	var busy time.Duration
	var open openResult
	for i := uint64(0); i < serveRounds; i++ {
		ok, fail, elapsed := srv.closedLoop(rep, c, cfg.conns, cfg.seed+i<<16, closed)
		done, failed, busy = done+ok, failed+fail, busy+elapsed
		o := srv.openLoop(rep, c, cfg.conns, cfg.seed+i<<16, round-closed, false)
		open.add(o)
		fmt.Printf("serve round %d: closed %.1f req/s, open n=%d p50=%.3fms p99=%.3fms\n",
			i+1, float64(ok)/elapsed.Seconds(), len(o.latency), median(o.latency), quantile(o.latency, 0.99))
	}
	rep.phase("serve closed loop", done+failed, failed)
	rep.phase("serve open loop", int64(len(open.late)), open.failed)
	if err := c.alive(); err != nil {
		return err
	}
	rss, err := peakRSSMB(c.cmd.Process.Pid)
	if err != nil {
		return err
	}
	latencies("serve open loop", open.latency)
	latencies("serve generator late", open.late)
	if late := median(open.late); late > ms(maxLateP50) {
		return fmt.Errorf("open-loop generator fell behind: median lateness %.3fms > %v; latencies are not the program's", late, maxLateP50)
	}
	cycles := make([]float64, 0, len(serveMix))
	for _, b := range serveMix {
		cycles = append(cycles, float64(want[b]))
	}
	rep.set("setup_s", "s", setup)
	rep.set("ops_per_s", "1/s", float64(done)/busy.Seconds())
	rep.set("p50_ms", "ms", median(open.latency))
	rep.set("p90_ms", "ms", quantile(open.latency, 0.9))
	rep.set("p99_ms", "ms", quantile(open.latency, 0.99))
	rep.set("rss_peak_mb", "MB", rss)
	rep.set("acc_cycles_geomean", "cycles", geomean(cycles))
	return nil
}

// ---- traced run ----

// span and runDebug mirror the parts of camserve's GET /runs/{id}
// bundle the harness reads.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Attrs  []struct {
		Key   string `json:"key"`
		Value any    `json:"value"`
	} `json:"attrs"`
}

type runDebug struct {
	ID           int64 `json:"id"`
	RestoreBytes int64 `json:"restore_bytes"`
	Instructions int64 `json:"instructions"`
	Trace        struct {
		Spans []span `json:"spans"`
	} `json:"trace"`
}

// serveStages are the request stages camserve spans, in request order;
// the root span's remainder is handler_other.
var serveStages = []string{"queue.wait", "pool.acquire", "snapshot.restore", "decode.lookup", "sim.run", "encode.json"}

// requestTrace is one request split into stages, in milliseconds.
type requestTrace struct {
	client, root float64
	// queued is the time from the request's due time until a connection
	// picked it up: the generator's lateness plus waiting for one of the
	// nproc connections.
	queued       float64
	stage        map[string]float64
	restoreBytes int64
	instructions int64
}

func (s *server) trace(id int64, client float64) (requestTrace, error) {
	var d runDebug
	if err := s.getJSON("/runs/"+strconv.FormatInt(id, 10), &d); err != nil {
		return requestTrace{}, err
	}
	if d.ID != id || len(d.Trace.Spans) == 0 {
		return requestTrace{}, fmt.Errorf("GET /runs/%d: bundle for run %d with %d spans", id, d.ID, len(d.Trace.Spans))
	}
	root := d.Trace.Spans[0]
	tr := requestTrace{
		client:       client,
		root:         float64(root.End-root.Start) / 1e6,
		stage:        map[string]float64{},
		restoreBytes: d.RestoreBytes,
		instructions: d.Instructions,
	}
	for _, sp := range d.Trace.Spans[1:] {
		tr.stage[sp.Name] += float64(sp.End-sp.Start) / 1e6
	}
	return tr, nil
}

// breakdown is the mean request of a set of traced requests, split into
// stages that add up to the client-observed latency.
type breakdown struct {
	stage        map[string]float64
	other, wire  float64
	restoreKB    float64
	simNsPerInst float64
}

// reconcile averages traces into a breakdown and prints it: the stage
// spans, handler_other (root span minus stages: ledger appends and glue)
// and wire (client latency minus root span) sum to the client latency.
func reconcile(label string, traces []requestTrace) breakdown {
	n := float64(len(traces))
	b := breakdown{stage: map[string]float64{}}
	var client, root, queued, stages, restore, insts float64
	for _, t := range traces {
		client += t.client
		queued += t.queued
		root += t.root
		restore += float64(t.restoreBytes)
		insts += float64(t.instructions)
		for _, name := range serveStages {
			b.stage[name] += t.stage[name] / n
			stages += t.stage[name]
		}
	}
	b.other = (root - stages) / n
	b.wire = (client - root) / n
	b.restoreKB = restore / n / 1024
	b.simNsPerInst = b.stage["sim.run"] * n * 1e6 / insts
	fmt.Printf("serve reconciliation, %s (mean of %d):\n", label, len(traces))
	for _, name := range serveStages {
		fmt.Printf("  %-16s %8.4fms\n", name, b.stage[name])
	}
	fmt.Printf("  %-16s %8.4fms  root span minus stages: ledger appends, glue\n", "handler_other", b.other)
	fmt.Printf("  %-16s %8.4fms  client latency minus root span, of which %.4fms waited for the generator or a free connection\n", "wire", b.wire, queued/n)
	fmt.Printf("  %-16s %8.4fms  client-observed %.4fms\n", "sum", stages/n+b.other+b.wire, client/n)
	return b
}

func traceServe(cfg config, rep *report) error {
	want, err := serveReference()
	if err != nil {
		return err
	}
	c, srv, _, err := serveSetup(cfg, 1, want)
	if err != nil {
		return err
	}
	defer c.stop()
	part := traceSeconds(cfg)
	plain := srv.openLoop(rep, c, cfg.conns, cfg.seed, part, false)
	rep.phase("serve untraced", int64(len(plain.late)), plain.failed)
	before, err := srv.metrics()
	if err != nil {
		return err
	}
	traced := srv.openLoop(rep, c, cfg.conns, cfg.seed, part, true)
	rep.phase("serve traced", int64(len(traced.late)), traced.failed)
	after, err := srv.metrics()
	if err != nil {
		return err
	}
	if err := c.alive(); err != nil {
		return err
	}
	latencies("serve untraced", plain.latency)
	latencies("serve traced", traced.latency)
	latencies("serve generator late", traced.late)

	if len(traced.traces) == 0 {
		return errors.New("no traced requests")
	}
	all := reconcile("all requests", traced.traces)
	slow := append([]requestTrace(nil), traced.traces...)
	sort.Slice(slow, func(i, j int) bool { return slow[i].client > slow[j].client })
	reconcile("slowest 1% of requests", slow[:max(1, len(slow)/100)])
	var queue []float64
	for _, t := range traced.traces {
		queue = append(queue, t.stage["queue.wait"])
	}

	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta(bench.MetricPoolHits), delta(bench.MetricPoolMisses)
	n := float64(len(traced.traces))
	rep.set("serve.pool_acquire_ms", "ms", all.stage["pool.acquire"])
	rep.set("serve.snapshot_restore_ms", "ms", all.stage["snapshot.restore"])
	rep.set("serve.restore_kb_per_req", "KB", all.restoreKB)
	rep.set("serve.decode_lookup_ms", "ms", all.stage["decode.lookup"])
	rep.set("serve.sim_run_ms", "ms", all.stage["sim.run"])
	rep.set("serve.sim_ns_per_inst", "ns", all.simNsPerInst)
	rep.set("serve.encode_json_ms", "ms", all.stage["encode.json"])
	rep.set("serve.handler_other_ms", "ms", all.other)
	rep.set("serve.wire_ms", "ms", all.wire)
	rep.set("serve.queue_wait_ms", "ms", quantile(queue, 0.99))
	rep.set("serve.pool_hit_share", "fraction", hits/(hits+misses))
	rep.set("serve.gc_pause_ms_per_kreq", "ms", delta(metrics.MetricGoGCPauseNS)/1e6/(n/1000))
	rep.set("loadgen.late_p99_ms", "ms", quantile(traced.late, 0.99))
	rep.set("serve.trace_overhead_pct", "%", overhead(median(plain.latency), median(traced.latency)))
	return nil
}
