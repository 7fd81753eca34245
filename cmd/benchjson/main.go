// Command benchjson records the gated kernel and transmission
// benchmarks as stable, diffable JSON on stdout. `make bench` writes
// its output to BENCH_kernels.json, so perf changes are reviewed like
// any other diff — and gated by cmd/benchgate, which re-runs the same
// suite (internal/benchgate.RunSuite) against that file.
//
// Results are emitted in sorted (name, procs) order so the document is
// byte-stable regardless of package test order, and the header records
// the Go version and the GOMAXPROCS the suite is pinned to.
//
// Usage:
//
//	go run ./cmd/benchjson > BENCH_kernels.json
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"p2prank/internal/benchgate"
)

func main() {
	fmt.Fprintln(os.Stderr, "benchjson: running gated benchmark suite...")
	rep, err := benchgate.RunSuite()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	rep.Sort()
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
