package main

// The api workload uses the public cambricon package the way examples/
// do: one operation is a pass over the ten Table III programs, each run
// on a fresh NewMachine through BenchmarkProgram.Execute (the baseline
// interpreter loop, Program.Init image replay, no pool, snapshot or
// predecode). One caller, closed loop.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"cambricon"
)

// apiPass is one timed pass: its duration, each program's duration and
// simulated cycles, and whether any program failed.
type apiPass struct {
	total   time.Duration
	progs   []time.Duration
	cycles  []int64
	failure error
}

// apiPrograms is the api set-up's result: the generated programs, the
// generation time, and the warm-up pass's cycles every later pass must
// reproduce.
type apiPrograms struct {
	progs []*cambricon.BenchmarkProgram
	gen   time.Duration
	ref   []int64
}

// apiSetup generates the programs from the seed and makes one warm-up
// pass.
func apiSetup(seed uint64) (apiPrograms, error) {
	start := time.Now()
	progs, err := cambricon.GenerateAll(seed)
	a := apiPrograms{progs: progs, gen: time.Since(start)}
	if err != nil {
		return a, fmt.Errorf("generate: %w", err)
	}
	p := runPass(progs)
	if p.failure != nil {
		return a, fmt.Errorf("warm-up pass: %w", p.failure)
	}
	a.ref = p.cycles
	return a, nil
}

// runPass executes every program once through the public Execute path.
func runPass(progs []*cambricon.BenchmarkProgram) apiPass {
	p := apiPass{progs: make([]time.Duration, len(progs)), cycles: make([]int64, len(progs))}
	start := time.Now()
	for i, prog := range progs {
		t := time.Now()
		m, err := cambricon.NewMachine(cambricon.DefaultConfig())
		if err == nil {
			var st cambricon.Stats
			st, err = prog.Execute(m)
			p.cycles[i] = st.Cycles
		}
		p.progs[i] = time.Since(t)
		if err != nil && p.failure == nil {
			p.failure = fmt.Errorf("%s: %w", prog.Name, err)
		}
	}
	p.total = time.Since(start)
	return p
}

// apiLoop runs passes until d has elapsed, checking every pass's cycles
// against the warm-up's reference, and returns the passes.
func apiLoop(rep *report, phase string, progs []*cambricon.BenchmarkProgram, ref []int64, d time.Duration, pass func() apiPass) []apiPass {
	var passes []apiPass
	var failed int64
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		p := pass()
		if p.failure != nil {
			failed++
			rep.wrongf("api: %v", p.failure)
		} else {
			for i, c := range p.cycles {
				if c != ref[i] {
					rep.wrongf("api: %s ran %d cycles, the first pass ran %d", progs[i].Name, c, ref[i])
				}
			}
		}
		passes = append(passes, p)
	}
	rep.phase(phase, int64(len(passes)), failed)
	return passes
}

func passMillis(passes []apiPass) (total, perProg []float64) {
	for _, p := range passes {
		total = append(total, ms(p.total))
		for _, d := range p.progs {
			perProg = append(perProg, ms(d))
		}
	}
	return total, perProg
}

func runAPI(cfg config, rep *report) error {
	a, setup, err := setupMedian("api", setupRounds, func() (apiPrograms, error) { return apiSetup(cfg.seed) })
	if err != nil {
		return err
	}
	progs, ref := a.progs, a.ref
	start := time.Now()
	passes := apiLoop(rep, "api closed loop", progs, ref, time.Duration(cfg.seconds*float64(time.Second)), func() apiPass { return runPass(progs) })
	elapsed := time.Since(start)
	total, perProg := passMillis(passes)
	latencies("api pass", total)
	latencies("api program", perProg)

	cycles := make([]float64, len(ref))
	for i, c := range ref {
		cycles[i] = float64(c)
		fmt.Printf("api program %-20s cycles %d\n", progs[i].Name, c)
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	rep.set("setup_s", "s", setup)
	rep.set("ops_per_s", "1/s", float64(len(passes))/elapsed.Seconds())
	rep.set("p50_ms", "ms", median(total))
	rep.set("p90_ms", "ms", quantile(total, 0.9))
	// A run holds 400-500 passes, so p99 rests on four or five passes
	// beyond it. The p99 of single program executions has the samples but
	// swung from 15 to 28 ms between runs where this one moved 10%: a
	// pass sums ten programs, which evens out their GC and page-fault
	// stalls.
	rep.set("p99_ms", "ms", quantile(total, 0.99))
	rep.set("rss_peak_mb", "MB", rss)
	rep.set("acc_cycles_geomean", "cycles", geomean(cycles))
	return nil
}

// apiSplit accumulates the traced pass's time per public call.
type apiSplit struct {
	newMachine, init, run, verify time.Duration
	instructions                  int64
}

// tracedPass is Execute taken apart into the public calls it makes —
// Init, LoadProgram, RunContext, Verify — with each call timed.
func tracedPass(progs []*cambricon.BenchmarkProgram, split *apiSplit) apiPass {
	p := apiPass{progs: make([]time.Duration, len(progs)), cycles: make([]int64, len(progs))}
	start := time.Now()
	for i, prog := range progs {
		t0 := time.Now()
		m, err := cambricon.NewMachine(cambricon.DefaultConfig())
		t1 := time.Now()
		var st cambricon.Stats
		var t2, t3 time.Time
		if err == nil {
			err = prog.Init(m)
			t2 = time.Now()
			if err == nil {
				m.LoadProgram(prog.Asm.Instructions)
				st, err = m.RunContext(context.Background())
				if err != nil {
					err = fmt.Errorf("run: %w", err)
				}
			}
			t3 = time.Now()
			if err == nil {
				err = prog.Verify(m)
			}
		}
		t4 := time.Now()
		if err == nil {
			split.newMachine += t1.Sub(t0)
			split.init += t2.Sub(t1)
			split.run += t3.Sub(t2)
			split.verify += t4.Sub(t3)
			split.instructions += st.Instructions
		}
		p.cycles[i] = st.Cycles
		p.progs[i] = t4.Sub(t0)
		if err != nil && p.failure == nil {
			p.failure = fmt.Errorf("%s: %w", prog.Name, err)
		}
	}
	p.total = time.Since(start)
	return p
}

func traceAPI(cfg config, rep *report) error {
	var gens []float64
	a, _, err := setupMedian("api generate", setupRounds, func() (apiPrograms, error) {
		a, err := apiSetup(cfg.seed)
		gens = append(gens, a.gen.Seconds())
		return a, err
	})
	if err != nil {
		return err
	}
	progs, ref := a.progs, a.ref
	part := traceSeconds(cfg)

	plain := apiLoop(rep, "api untraced", progs, ref, part, func() apiPass { return runPass(progs) })

	var split apiSplit
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	traced := apiLoop(rep, "api traced", progs, ref, part, func() apiPass { return tracedPass(progs, &split) })
	runtime.ReadMemStats(&after)

	plainMs, _ := passMillis(plain)
	tracedMs, _ := passMillis(traced)
	latencies("api pass untraced", plainMs)
	latencies("api pass traced", tracedMs)
	n := float64(len(traced))
	perPass := func(d time.Duration) float64 { return ms(d) / n }
	fmt.Printf("api split per pass: new_machine %.3fms + init %.3fms + run %.3fms + verify %.3fms = %.3fms of %.3fms mean pass\n",
		perPass(split.newMachine), perPass(split.init), perPass(split.run), perPass(split.verify),
		perPass(split.newMachine+split.init+split.run+split.verify), mean(tracedMs))

	rep.set("api.generate_s", "s", median(gens))
	rep.set("api.new_machine_ms", "ms", perPass(split.newMachine))
	rep.set("api.init_ms", "ms", perPass(split.init))
	rep.set("api.run_ms", "ms", perPass(split.run))
	rep.set("api.verify_ms", "ms", perPass(split.verify))
	rep.set("api.run_ns_per_inst", "ns", float64(split.run)/float64(split.instructions))
	rep.set("api.alloc_mb_per_pass", "MB", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/n)
	rep.set("api.gc_per_pass", "count", float64(after.NumGC-before.NumGC)/n)
	rep.set("api.trace_overhead_pct", "%", overhead(median(plainMs), median(tracedMs)))
	return nil
}
