// Command perfbench is the platform's benchmark: an open-loop load
// generator that drives an in-process api.Server over loopback HTTP with
// api.Client, under one of three workloads (upload, search, mixed), and
// checks every answer. See README.md for the workloads, the metrics and
// how to read a traced run.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any correctness check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: upload, search or mixed")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer phase after an untraced one")
	workdir := fs.String("workdir", ".bench_build", "directory for stores and span files")
	commit := fs.String("commit", "unknown", "commit the program was built from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want upload, search or mixed)\n", *name)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: need --seconds > 0")
		return 2
	}
	// setup_s is the median of three set-ups; the SIFT-BoW and CNN
	// extractors train on 24 images.
	o := options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		setups: 3, trainImgs: 24, workdir: *workdir, commit: *commit}
	res, err := run(context.Background(), o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res.output())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct {
		fmt.Fprintln(stderr, "perfbench: correctness checks failed")
		return 1
	}
	return 0
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run measured.
type result struct {
	correct   bool
	attempted int
	failed    int
	// endToEnd are the metrics of an untraced run's JSON line; layers
	// those of a traced run's.
	endToEnd map[string]metric
	layers   map[string]metric
	trace    bool
}

// endToEndNames are the metrics an untraced run reports in its JSON line,
// as listed in BENCHMARK.json. Each is defined, non-zero and steady in
// every workload; the report prints the rest.
var endToEndNames = []string{
	"setup_s", "latency_p50_ms", "recall_at_10", "disk_bytes_per_user_byte", "heap_mb",
}

func (r *result) output() map[string]any {
	m := r.endToEnd
	if r.trace {
		m = r.layers
	}
	return map[string]any{"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": m}
}

// envStamp describes where and how the run happened.
func envStamp(o options) map[string]any {
	w := o.workload
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": o.commit, "workload": w.name, "seed": o.seed, "seconds": o.seconds,
		"upload_rate": w.uploadRate, "search_rate": w.searchRate, "preload": w.preload,
		"shards": w.shards, "connections": senders, "setups": o.setups, "trace": o.trace,
	}
}

func printStamp(out io.Writer, o options) {
	b, _ := json.Marshal(envStamp(o))
	fmt.Fprintf(out, "env %s\n", b)
}

// printMetrics prints name = value unit lines, sorted by name.
func printMetrics(out io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s\n", title)
	for _, n := range names {
		fmt.Fprintf(out, "  %-30s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
