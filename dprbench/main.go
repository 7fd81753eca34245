// Command dprbench is the repository's benchmark: it runs one named
// workload from its seed, checks the outputs are correct, and prints
// the workload's metrics by name with their units — the end-to-end set
// untraced, the per-layer set with --trace 1. The last line of standard
// output is the machine-readable result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds it first:
//
//	bash dprbench/run.sh --workload converge --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics, and how each layer's
// numbers map to the end-to-end ones.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// workload is one named input set and the way to drive it. Why each
// exists is recorded in BENCHMARK.json and README.md.
type workload struct {
	name string
	run  func(c *runCtx) error
}

var workloads = []workload{
	{"converge", runConverge},
	{"scale", runScale},
	{"serve_partition", runServePartition},
	{"live_tcp", runLiveTCP},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the arguments, runs the workload, and prints the report
// and the result line. It returns the process exit code: 0 when every
// correctness check passed, 1 when one failed (the result line still
// says so), 2 when the run could not produce a result at all.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dprbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "input seed (0 is not allowed)")
	seconds := fs.Float64("seconds", 10, "how long to keep repeating the measured work")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span dump")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "where traced runs write their span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || *seed == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "dprbench: need --workload (%s), --seed > 0, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	c := newRunCtx(*seed, *seconds, *trace == 1, stderr)
	if c.traced() {
		if err := c.baseline(w.run); err != nil {
			fmt.Fprintf(stderr, "dprbench: %s: untraced baseline: %v\n", w.name, err)
			return 2
		}
	}
	if err := w.run(c); err != nil {
		fmt.Fprintf(stderr, "dprbench: %s: %v\n", w.name, err)
		return 2
	}
	res := c.finish()
	line, err := encodeResult(res)
	if err != nil {
		fmt.Fprintf(stderr, "dprbench: %s: %v\n", w.name, err)
		return 2
	}
	if c.traced() {
		path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := c.tr.dump(path); err != nil {
			fmt.Fprintf(stderr, "dprbench: writing spans: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "spans: %s (%d spans, %d busy records)\n", path, len(c.tr.spans), len(c.tr.busy))
	}
	c.writeReport(stdout, w.name, res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}
