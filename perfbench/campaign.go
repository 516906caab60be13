package main

// The campaign workload calls the fault-campaign library the way
// camrepro -fault-json does with its default flags: all ten targets, 50
// sites each, 8 checkpoints, GOMAXPROCS workers. One suite serves the
// whole run; each campaign takes the next consecutive seed from the
// workload seed on. Every target is wrapped in a timedTarget, which
// times each call the campaign makes into it.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"cambricon/internal/bench"
	"cambricon/internal/fault"
	"cambricon/internal/metrics"
)

const (
	campaignSites       = 50 // camrepro -fault-sites default
	campaignCheckpoints = 8  // camrepro -fault-checkpoints default
	campaignSuiteSeed   = 7  // camrepro -seed default
	slowestShown        = 5
)

// siteCall is one timed call the campaign made into a target for a
// fault site.
type siteCall struct {
	target string
	fault  fault.Fault
	dur    time.Duration
	hung   bool
}

// callLog collects the timed calls of one campaign. Without detail it
// keeps site durations only.
type callLog struct {
	detail bool

	mu     sync.Mutex
	sites  []siteCall
	golden time.Duration
}

func (l *callLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sites = l.sites[:0]
	l.golden = 0
}

func (l *callLog) site(target string, f fault.Fault, d time.Duration, obs *fault.Observation) {
	c := siteCall{dur: d}
	if l.detail {
		c.target, c.fault, c.hung = target, f, obs.Hung
	}
	l.mu.Lock()
	l.sites = append(l.sites, c)
	l.mu.Unlock()
}

// timedTarget wraps a fault.FastForwardTarget and times every call.
type timedTarget struct {
	fault.FastForwardTarget
	log *callLog
}

func (t *timedTarget) Run(inj fault.Injector, maxCycles int64) fault.Observation {
	start := time.Now()
	obs := t.FastForwardTarget.Run(inj, maxCycles)
	d := time.Since(start)
	if inj == nil {
		t.log.mu.Lock()
		t.log.golden += d
		t.log.mu.Unlock()
	} else {
		t.log.site(t.Name(), fault.Fault{}, d, &obs)
	}
	return obs
}

func (t *timedTarget) RunBuf(inj fault.Injector, maxCycles int64, buf []byte) fault.Observation {
	start := time.Now()
	obs := t.FastForwardTarget.RunBuf(inj, maxCycles, buf)
	t.log.site(t.Name(), fault.Fault{}, time.Since(start), &obs)
	return obs
}

func (t *timedTarget) RunSiteBuf(f fault.Fault, maxCycles int64, buf []byte) fault.Observation {
	start := time.Now()
	obs := t.FastForwardTarget.RunSiteBuf(f, maxCycles, buf)
	t.log.site(t.Name(), f, time.Since(start), &obs)
	return obs
}

// campaignSuite is one set-up: the suite, its wrapped targets, the
// golden cycles and the checkpoint capture time.
type campaignSuite struct {
	suite   *bench.Suite
	targets []fault.Target
	golden  []int64
	capture time.Duration
	log     *callLog
}

// setupCampaign builds a suite and its fault targets, makes each
// target's golden run and captures its checkpoints. reg, when non-nil,
// is attached as the suite's metrics registry.
func setupCampaign(reg *metrics.Registry, detail bool) (*campaignSuite, error) {
	s := bench.NewSuite(campaignSuiteSeed)
	s.Metrics = reg
	targets, err := s.FaultTargets()
	if err != nil {
		return nil, err
	}
	cs := &campaignSuite{suite: s, log: &callLog{detail: detail}}
	for _, t := range targets {
		ft, ok := t.(fault.FastForwardTarget)
		if !ok {
			return nil, fmt.Errorf("target %s does not fast-forward", t.Name())
		}
		obs := ft.Run(nil, 0)
		if obs.Err != nil || obs.Crashed {
			return nil, fmt.Errorf("golden run of %s: %v", t.Name(), obs.Err)
		}
		start := time.Now()
		if err := ft.PrepareCheckpoints(campaignCheckpoints); err != nil {
			return nil, fmt.Errorf("checkpoints of %s: %w", t.Name(), err)
		}
		cs.capture += time.Since(start)
		cs.golden = append(cs.golden, obs.Cycles)
		cs.targets = append(cs.targets, &timedTarget{FastForwardTarget: ft, log: cs.log})
	}
	return cs, nil
}

// campaignResult is one finished campaign.
type campaignResult struct {
	dur    time.Duration
	golden time.Duration
	sites  []siteCall
	tally  fault.Tally
}

// sweep runs campaigns on consecutive seeds from first until d has
// elapsed, checking each report.
func (cs *campaignSuite) sweep(rep *report, phase string, first uint64, d time.Duration) ([]campaignResult, error) {
	var out []campaignResult
	var attempted, failed int64
	deadline := time.Now().Add(d)
	for seed := first; time.Now().Before(deadline); seed++ {
		cs.log.reset()
		c := fault.Campaign{Seed: seed, Sites: campaignSites, Checkpoints: campaignCheckpoints}
		start := time.Now()
		r, err := c.Run(context.Background(), cs.targets)
		dur := time.Since(start)
		n := int64(campaignSites * len(cs.targets))
		attempted += n
		if err != nil {
			failed += n
			rep.wrongf("campaign seed %d: %v", seed, err)
			continue
		}
		cs.check(rep, r)
		digest, err := reportDigest(r)
		if err != nil {
			return nil, err
		}
		t := r.Total
		fmt.Printf("campaign seed=%d digest=%s %.1fms masked=%d sdc=%d detected=%d hang=%d crash=%d\n",
			seed, digest, ms(dur), t.Masked, t.SDC, t.Detected, t.Hang, t.Crash)
		cs.log.mu.Lock()
		out = append(out, campaignResult{dur: dur, golden: cs.log.golden,
			sites: append([]siteCall(nil), cs.log.sites...), tally: t})
		cs.log.mu.Unlock()
		// Each campaign starts from the machine pool camrepro starts
		// from: idle machines, and the scratch buffers faulted runs grew
		// in them, are released between campaigns (untimed), so one
		// campaign's memory does not carry into the next.
		cs.suite.PoolShrink(0)
		runtime.GC()
	}
	rep.phase(phase, attempted, failed)
	return out, nil
}

// check verifies one campaign report: every target swept every site,
// the tallies add up, and the golden runs reproduce the set-up's cycles.
func (cs *campaignSuite) check(rep *report, r *fault.Report) {
	if len(r.Benchmarks) != len(cs.targets) {
		rep.wrongf("campaign seed %d: %d benchmark reports for %d targets", r.Seed, len(r.Benchmarks), len(cs.targets))
		return
	}
	var sum int
	for i, b := range r.Benchmarks {
		if len(b.Runs) != campaignSites || b.Tally.Sum() != campaignSites {
			rep.wrongf("campaign seed %d: %s has %d runs, tally %d, want %d", r.Seed, b.Name, len(b.Runs), b.Tally.Sum(), campaignSites)
		}
		if b.GoldenCycles != cs.golden[i] {
			rep.wrongf("campaign seed %d: %s golden run took %d cycles, set-up took %d", r.Seed, b.Name, b.GoldenCycles, cs.golden[i])
		}
		sum += b.Tally.Sum()
	}
	if sum != r.Total.Sum() || sum != campaignSites*len(cs.targets) {
		rep.wrongf("campaign seed %d: tallies sum to %d, total says %d, want %d", r.Seed, sum, r.Total.Sum(), campaignSites*len(cs.targets))
	}
}

func reportDigest(r *fault.Report) (string, error) {
	h := sha256.New()
	if err := r.Write(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func siteMillis(results []campaignResult) []float64 {
	var xs []float64
	for _, r := range results {
		for _, s := range r.sites {
			xs = append(xs, ms(s.dur))
		}
	}
	return xs
}

func campaignMillis(results []campaignResult) []float64 {
	xs := make([]float64, len(results))
	for i, r := range results {
		xs[i] = ms(r.dur)
	}
	return xs
}

func runCampaign(cfg config, rep *report) error {
	cs, setup, err := setupMedian("campaign", setupRounds, func() (*campaignSuite, error) {
		return setupCampaign(nil, false)
	})
	if err != nil {
		return err
	}
	setupRSS, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	results, err := cs.sweep(rep, "campaign", cfg.seed, time.Duration(cfg.seconds*float64(time.Second)))
	if err != nil {
		return err
	}
	var sites int
	var busy time.Duration
	for _, r := range results {
		sites += r.tally.Sum()
		busy += r.dur
	}
	camp := campaignMillis(results)
	site := siteMillis(results)
	latencies("campaign", camp)
	latencies("campaign site", site)
	cycles := make([]float64, len(cs.golden))
	for i, c := range cs.golden {
		cycles[i] = float64(c)
	}
	rep.set("setup_s", "s", setup)
	rep.set("ops_per_s", "1/s", float64(sites)/busy.Seconds())
	rep.set("p50_ms", "ms", median(camp))
	// Whole-campaign tails are set by a handful of sites whose corrupted
	// size register allocates up to 2 GiB before a bounds check rejects
	// it; a run holds too few campaigns to place p90 and p99 steadily
	// among them, so both are taken over single sites.
	rep.set("p90_ms", "ms", quantile(site, 0.9))
	rep.set("p99_ms", "ms", quantile(site, 0.99))
	// The sweep's own peak swings by gigabytes with which worker drew
	// such a site; it is the layer metric campaign.rss_peak_mb. The
	// end-to-end figure is the peak at the end of set-up.
	rep.set("rss_peak_mb", "MB", setupRSS)
	rep.set("acc_cycles_geomean", "cycles", geomean(cycles))
	return nil
}

func traceCampaign(cfg config, rep *report) error {
	part := traceSeconds(cfg)
	var captures []float64
	plain, err := setupCampaign(nil, false)
	if err != nil {
		return err
	}
	captures = append(captures, plain.capture.Seconds())
	untraced, err := plain.sweep(rep, "campaign untraced", cfg.seed, part)
	if err != nil {
		return err
	}
	plain = nil
	runtime.GC()

	reg := metrics.New()
	cs, err := setupCampaign(reg, true)
	if err != nil {
		return err
	}
	captures = append(captures, cs.capture.Seconds())
	converged0 := reg.Counter(bench.MetricFFConverged, "").Value()
	traced, err := cs.sweep(rep, "campaign traced", cfg.seed, part)
	if err != nil {
		return err
	}
	converged := reg.Counter(bench.MetricFFConverged, "").Value() - converged0
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}

	var all []siteCall
	var goldens []float64
	if len(traced) == 0 {
		return fmt.Errorf("no traced campaign finished in %v", part)
	}
	var wall, siteTime, hangTime time.Duration
	var transient int
	for _, r := range traced {
		all = append(all, r.sites...)
		goldens = append(goldens, ms(r.golden))
		wall += r.dur
	}
	for _, s := range all {
		siteTime += s.dur
		if s.hung {
			hangTime += s.dur
		}
		if s.fault.Model != fault.ModelStuckLane {
			transient++
		}
	}
	site := siteMillis(traced)
	latencies("campaign untraced", campaignMillis(untraced))
	latencies("campaign traced", campaignMillis(traced))
	latencies("campaign site", site)
	sort.Slice(all, func(i, j int) bool { return all[i].dur > all[j].dur })
	for i := 0; i < len(all) && i < slowestShown; i++ {
		s := all[i]
		fmt.Printf("campaign slowest site %d: %s %v %.1fms hung=%v\n", i+1, s.target, s.fault, ms(s.dur), s.hung)
	}
	// Both worker pools are GOMAXPROCS wide: up to outer x inner sites
	// run at once.
	procs := runtime.GOMAXPROCS(0)
	slots := procs * min(procs, len(cs.targets))
	n := float64(len(all))

	rep.set("campaign.capture_s", "s", median(captures))
	rep.set("campaign.golden_ms", "ms", median(goldens))
	rep.set("campaign.site_p50_us", "us", median(site)*1000)
	rep.set("campaign.site_p99_ms", "ms", quantile(site, 0.99))
	rep.set("campaign.site_max_ms", "ms", ms(all[0].dur))
	rep.set("campaign.ff_share", "fraction", float64(transient)/n)
	rep.set("campaign.converged_share", "fraction", float64(converged)/n)
	rep.set("campaign.hang_time_share", "fraction", hangTime.Seconds()/siteTime.Seconds())
	rep.set("campaign.worker_busy_share", "fraction", siteTime.Seconds()/(float64(slots)*wall.Seconds()))
	rep.set("campaign.rss_peak_mb", "MB", rss)
	rep.set("campaign.trace_overhead_pct", "%", overhead(median(campaignMillis(untraced)), median(campaignMillis(traced))))
	return nil
}
