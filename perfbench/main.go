// Command perfbench is the repository benchmark. It measures the system
// from outside: it times calls into public functions, reads what the
// program already exports (camserve's GET /runs/{id} span bundles and
// GET /metrics) and wraps public interfaces (fault.Target). It adds no
// tracing inside the program.
//
// Three workloads:
//
//	serve     camserve as a child process under HTTP load (MLP/HNN/RNN)
//	campaign  whole 500-site fault campaigns, the camrepro -fault-json defaults
//	api       passes over the ten Table III programs through the cambricon facade
//
// With -trace 0 the run prints the end-to-end metrics of its workload;
// with -trace 1 it runs the traced measurement of every workload and
// prints the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Any wrong
// program output makes the run exit with status 1. See README.md.
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// setupRounds is how many times a run repeats its workload's set-up;
// setup_s is their median.
const setupRounds = 5

// config is what every workload receives from the command line.
type config struct {
	seed     uint64
	seconds  float64
	camserve string
	// conns is nproc: the most connections the serve load opens.
	conns int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's operation counts, correctness failures and
// metrics, and prints the detail lines a reader checks the numbers with.
type report struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	wrong     []string
	metrics   map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// phase records the operations one measured phase attempted and failed.
func (r *report) phase(name string, attempted, failed int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += attempted
	r.failed += failed
	fmt.Printf("phase %-24s attempted %7d failed %d\n", name, attempted, failed)
}

// wrongf records an incorrect program output; the run then exits 1.
func (r *report) wrongf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, msg)
	}
	fmt.Println("WRONG:", msg)
}

func (r *report) set(name, unit string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) correct() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.wrong) == 0
}

// print writes the metric table and, as the last line, the JSON result.
func (r *report) print() error {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("metric %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// workload is one benchmark workload: run measures the end-to-end
// metrics, trace the per-layer metrics plus the tracing overhead.
type workload struct {
	run, trace func(cfg config, rep *report) error
}

var workloads = map[string]workload{
	"serve":    {runServe, traceServe},
	"campaign": {runCampaign, traceCampaign},
	"api":      {runAPI, traceAPI},
}

// traceOrder is the order a traced run measures the workloads in, after
// the one named on the command line.
var traceOrder = []string{"serve", "campaign", "api"}

// traceSeconds is how long a traced run measures each workload untraced,
// and then again traced: a third of -seconds each, so the three
// workloads together take twice -seconds.
func traceSeconds(cfg config) time.Duration {
	return time.Duration(cfg.seconds * float64(time.Second) / 3)
}

func main() {
	name := flag.String("workload", "", "workload: serve, campaign or api")
	seed := flag.Uint64("seed", 1, "workload seed: the serve mix, the first campaign seed, the api generation seed")
	seconds := flag.Float64("seconds", 30, "measured seconds per run")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	camserve := flag.String("camserve", ".bench_build/camserve", "camserve binary for the serve workload")
	awake := flag.Bool("keep-awake", false, "internal: run as the keep-awake child (see awake.go)")
	flag.Parse()

	if *awake {
		err := keepAwake()
		fmt.Fprintf(os.Stderr, "perfbench: keep-awake: %v\n", err)
		os.Exit(1)
	}

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: -workload serve|campaign|api -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, camserve: *camserve, conns: runtime.NumCPU()}

	// A signal must not leave a camserve child behind.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sigs
		killChildren()
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", s)
		os.Exit(1)
	}()

	rep := newReport()
	start := time.Now()
	// Without the keep-awake child the run still measures, only noisier.
	if _, err := startKeepAwake(); err != nil {
		fmt.Printf("keep-awake unavailable, CPUs may halt between requests: %v\n", err)
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d\n",
		*name, cfg.seed, cfg.seconds, *traced, cfg.conns, runtime.GOMAXPROCS(0))
	var err error
	if *traced == 0 {
		err = w.run(cfg, rep)
	} else {
		order := []string{*name}
		for _, n := range traceOrder {
			if n != *name {
				order = append(order, n)
			}
		}
		for _, n := range order {
			fmt.Printf("== traced %s\n", n)
			if err = workloads[n].trace(cfg, rep); err != nil {
				break
			}
		}
	}
	killChildren()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Printf("wall %.1fs\n", time.Since(start).Seconds())
	if err := rep.print(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}
