// Command benchgate is the perf ratchet: it re-runs the gated
// benchmark suite (the same pattern `make bench` records) and compares
// the fresh numbers against the committed baseline BENCH_kernels.json.
//
// The alloc gate is always on — an allocs/op increase on a gated
// kernel fails (exact below 1000 allocs/op, 0.1% slack above for
// amortized macro counts; see internal/benchgate). The time gate (default
// +10% ns/op) only fails the run in strict mode (-strict or
// BENCHGATE_STRICT=1); outside strict mode time regressions are
// printed as warnings, since shared-hardware timings jitter.
//
// Usage:
//
//	go run ./cmd/benchgate                  # run suite, alloc gate only
//	go run ./cmd/benchgate -strict          # also enforce the time gate
//	go run ./cmd/benchgate -input out.txt   # gate a pre-recorded run
//
// A benchmark present in the baseline but absent from the current run
// always fails: a silently vanished kernel is not a passing gate.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"

	"p2prank/internal/benchfmt"
	"p2prank/internal/benchgate"
)

// benchPattern and benchPackages mirror the `make bench` invocation
// that produces the baseline; the gate must measure what was recorded.
const benchPattern = "MulVec|StepDelta|NewCSR|Fig6RelativeError|TransmissionScaling|ReliableSend|Schedule|EventLoop|GraphLoad|QueryTopK|SnapshotPublish|FrontendBuild"

var benchPackages = []string{"./internal/vecmath/", "./internal/dprcore/", "./internal/simnet/", "./internal/webgraph/", "./internal/serve/", "."}

func main() {
	baselinePath := flag.String("baseline", "BENCH_kernels.json", "committed baseline report")
	input := flag.String("input", "", "gate this `go test -bench` output file instead of running the suite ('-' for stdin)")
	strict := flag.Bool("strict", os.Getenv("BENCHGATE_STRICT") == "1", "enforce the time gate (default: BENCHGATE_STRICT=1)")
	threshold := flag.Float64("threshold", benchgate.DefaultThreshold, "fractional ns/op growth the time gate tolerates")
	flag.Parse()

	baseline, err := readBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}
	current, err := currentReport(*input)
	if err != nil {
		fatal(err)
	}

	opts := benchgate.Options{Strict: *strict, Threshold: *threshold}
	violations := benchgate.Compare(baseline, current, opts)
	fatalViolations := benchgate.Fatal(violations, opts)
	for _, v := range violations {
		tag := "WARN"
		for _, f := range fatalViolations {
			if f == v {
				tag = "FAIL"
				break
			}
		}
		fmt.Fprintf(os.Stderr, "benchgate: %s: %s\n", tag, v)
	}
	if len(fatalViolations) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d violation(s) against %s\n", len(fatalViolations), *baselinePath)
		os.Exit(1)
	}
	mode := "alloc gate"
	if *strict {
		mode = fmt.Sprintf("alloc + time gate (%.0f%%)", *threshold*100)
	}
	fmt.Printf("benchgate: %d kernel(s) within baseline %s [%s]\n",
		len(baseline.Results), *baselinePath, mode)
}

func readBaseline(path string) (*benchfmt.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading baseline: %w (run `make bench` to record one)", err)
	}
	rep := &benchfmt.Report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	return rep, nil
}

// currentReport produces the fresh numbers: from a recorded file, from
// stdin, or by running the gated suite like `make bench` does.
func currentReport(input string) (*benchfmt.Report, error) {
	var sc *bufio.Scanner
	switch input {
	case "":
		args := append([]string{"test", "-run", "^$", "-bench", benchPattern, "-benchmem"}, benchPackages...)
		cmd := exec.Command("go", args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		fmt.Fprintln(os.Stderr, "benchgate: running gated benchmark suite...")
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("bench run: %v\n%s", err, stderr.String())
		}
		sc = bufio.NewScanner(&stdout)
	case "-":
		sc = bufio.NewScanner(os.Stdin)
	default:
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		sc = bufio.NewScanner(f)
	}
	rep, err := benchfmt.Parse(sc)
	if err != nil {
		return nil, err
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("no benchmark lines in current run")
	}
	return rep, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
	os.Exit(1)
}
