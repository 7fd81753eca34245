package benchgate

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"runtime"

	"p2prank/internal/benchfmt"
)

// suitePattern and suitePackages name the gated kernels: the hot-path
// and transmission benchmarks BENCH_kernels.json records.
const suitePattern = "MulVec|StepDelta|NewCSR|Fig6RelativeError|TransmissionScaling|ReliableSend|Schedule|EventLoop|GraphLoad|QueryTopK|SnapshotPublish|FrontendBuild"

var suitePackages = []string{"./internal/vecmath/", "./internal/dprcore/", "./internal/simnet/", "./internal/webgraph/", "./internal/serve/", "."}

// suiteProcs is the GOMAXPROCS every gated kernel runs at. Pinning it
// (go test -cpu 1) keeps result names and numbers comparable across
// machines: a 1-proc kernel is reported without a -N suffix wherever it
// runs.
const suiteProcs = 1

// RunSuite runs the gated benchmark suite with the go tool in the
// current directory (the module root) and parses its output into a
// report whose header records the Go version and the pinned
// GOMAXPROCS. Both the baseline recorder (cmd/benchjson) and the gate
// (cmd/benchgate) call it, so they always measure the same kernels the
// same way.
func RunSuite() (*benchfmt.Report, error) {
	args := append([]string{"test", "-run", "^$", "-bench", suitePattern, "-benchmem",
		"-cpu", fmt.Sprint(suiteProcs)}, suitePackages...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("bench run: %v\n%s%s", err, stdout.String(), stderr.String())
	}
	rep, err := benchfmt.Parse(bufio.NewScanner(&stdout))
	if err != nil {
		return nil, err
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("bench run printed no benchmark lines")
	}
	rep.GoVersion = runtime.Version()
	rep.GoMaxProcs = suiteProcs
	return rep, nil
}
