// Command perfbench is the repository's end-to-end benchmark. It runs
// seeded, in-process D-DEMOS elections, times every layer from outside at
// its public entry points, checks every output, and prints the metrics as
// one JSON object on the last line of standard output:
//
//	perfbench --workload vote-lan4 --seed 1 --seconds 24 --trace 0
//
// See README.md for the workloads, the metrics and why each exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ddemos/internal/transport"
)

// watchdog bounds a whole run: a hung phase ends the process with an
// error instead of outliving the caller's time limit.
const watchdog = 170 * time.Second

func main() {
	timer := time.AfterFunc(watchdog, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded", watchdog)
		os.Exit(3)
	})
	code := run(os.Args[1:], os.Stdout)
	timer.Stop()
	os.Exit(code)
}

// run parses args, runs one workload and prints its result.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed: EA randomness and every voter's choices")
	seconds := fs.Int("seconds", 24, "run length in seconds; sizes the fixed work of the run")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sh, err := newShape(*name, *seconds)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench:", err, "(need --workload", workloadNames(), "--seconds >= 1 --trace 0|1)")
		return 2
	}
	base := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	workDir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer func() { _ = os.RemoveAll(workDir) }()

	r := &runner{
		sh:      sh,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		acct:    &account{},
		workDir: workDir,
		log:     out,
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	r.run()

	for _, n := range r.acct.notes {
		fmt.Fprintln(out, "# failure:", n)
	}
	metrics := metricSet{}
	if r.tr != nil {
		spans := r.tr.snapshot()
		path := filepath.Join(base, "traces", fmt.Sprintf("%s-seed%d.jsonl", sh.name, *seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = writeSpans(path, spans)
		}
		if err != nil {
			fmt.Fprintln(out, "# failure: writing spans:", err)
			r.acct.phase("trace output", err) //nolint:errcheck // counted
		} else {
			fmt.Fprintf(out, "# %d spans written to %s\n", len(spans), path)
		}
		r.perLayer(metrics, spans)
	} else {
		r.endToEnd(metrics)
	}
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int64     `json:"attempted"`
		Failed    int64     `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{r.acct.correct(), r.acct.attempted.Load(), r.acct.failed(), metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	return 0
}

// header prints the run's environment and the workload's shape.
func (r *runner) header() {
	sh := r.sh
	fmt.Fprintf(r.log, "# perfbench workload=%s seed=%d trace=%t go=%s nproc=%d gomaxprocs=%d seconds=%v\n",
		sh.name, r.seed, r.tr != nil, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), r.seconds)
	fmt.Fprintf(r.log, "# shape nv=%d pool=%d votes=%d full=%t durable=%t rounds=%d paced_rate=%g/s paced_votes=%d "+
		"paced_workers=%d capacity_votes=%d capacity_inflight=%d cache_bytes=%d batch_window=%v\n",
		sh.nv, sh.pool, sh.votes, sh.full, sh.durable, sh.rounds, sh.rate, sh.pacedVotes,
		pacedWorkers, sh.votes-sh.pacedVotes, capacityVoters, sh.cacheBytes, transport.DefaultBatchWindow)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to figures.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }
