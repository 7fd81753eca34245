// Package clitest smoke-tests the command-line tools end to end: it
// builds each binary with the local toolchain and exercises its main
// paths against tiny workloads.
package clitest

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuf is a goroutine-safe output collector for child processes.
type syncBuf struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// buildCmds compiles every cmd into a temp dir once per test binary.
var builtDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "p2prank-cli")
	if err != nil {
		panic(err)
	}
	builtDir = dir
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"p2prank/cmd/genweb", "p2prank/cmd/dprsim", "p2prank/cmd/bwtable", "p2prank/cmd/dprnode")
	cmd.Dir = repoRoot()
	if out, err := cmd.CombinedOutput(); err != nil {
		panic("building cmds: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func repoRoot() string {
	// This package lives at <root>/internal/clitest.
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return filepath.Dir(filepath.Dir(wd))
}

func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(builtDir, name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestGenwebStats(t *testing.T) {
	out := run(t, "genweb", "-pages", "3000", "-stats")
	for _, want := range []string{"pages=3000", "intra-site"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestGenwebWriteAndDprnodeLoad(t *testing.T) {
	graph := filepath.Join(t.TempDir(), "crawl.bin")
	run(t, "genweb", "-pages", "2000", "-out", graph)
	if _, err := os.Stat(graph); err != nil {
		t.Fatalf("graph not written: %v", err)
	}
	// Text format too.
	textGraph := filepath.Join(t.TempDir(), "crawl.txt")
	run(t, "genweb", "-pages", "500", "-out", textGraph)
}

func TestGenwebCut(t *testing.T) {
	out := run(t, "genweb", "-pages", "4000", "-cut", "-k", "8")
	if !strings.Contains(out, "by-site") || !strings.Contains(out, "random") {
		t.Fatalf("cut table missing:\n%s", out)
	}
}

func TestBwtableReproducesTable1(t *testing.T) {
	out := run(t, "bwtable")
	for _, want := range []string{"7500s", "10500s", "12000s", "100KB/s", "10KB/s", "1KB/s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 value %q missing:\n%s", want, out)
		}
	}
}

func TestDprsimFig7(t *testing.T) {
	out := run(t, "dprsim", "-exp", "fig7", "-pages", "2500", "-sites", "15", "-k", "6", "-maxtime", "30")
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "time,A") {
		t.Fatalf("fig7 output malformed:\n%s", out)
	}
}

func TestDprsimCSVOutput(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "curves.csv")
	run(t, "dprsim", "-exp", "fig6", "-pages", "2000", "-sites", "10", "-k", "4", "-maxtime", "20", "-csv", csv)
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "time,") {
		t.Fatalf("CSV header wrong: %q", string(data[:40]))
	}
}

func TestDprsimCut(t *testing.T) {
	out := run(t, "dprsim", "-exp", "cut", "-pages", "3000", "-sites", "20", "-k", "8")
	if !strings.Contains(out, "cut fraction") {
		t.Fatalf("cut output malformed:\n%s", out)
	}
}

func TestDprsimUnknownExperiment(t *testing.T) {
	cmd := exec.Command(filepath.Join(builtDir, "dprsim"), "-exp", "nonsense")
	if err := cmd.Run(); err == nil {
		t.Fatal("unknown experiment exited 0")
	}
}

func TestDprnodeDemo(t *testing.T) {
	out := run(t, "dprnode", "-demo", "-pages", "1500", "-k", "3", "-target", "1e-4")
	if !strings.Contains(out, "converged to relative error") {
		t.Fatalf("demo did not converge:\n%s", out)
	}
	if !strings.Contains(out, "top pages") {
		t.Fatalf("demo missing top pages:\n%s", out)
	}
}

// TestDprnodeMultiProcess runs three dprnode processes against a shared
// crawl file — the real deployment shape — and verifies each makes
// ranking progress and exchanges chunks before being stopped.
func TestDprnodeMultiProcess(t *testing.T) {
	dir := t.TempDir()
	graph := filepath.Join(dir, "crawl.bin")
	run(t, "genweb", "-pages", "3000", "-out", graph)

	// Fixed localhost ports; chosen high to dodge collisions.
	ports := []string{"38471", "38472", "38473"}
	addr := func(i int) string { return "127.0.0.1:" + ports[i] }
	outputs := make([]*syncBuf, 3)
	for i := 0; i < 3; i++ {
		var peers []string
		for j := 0; j < 3; j++ {
			if j != i {
				peers = append(peers, fmt.Sprintf("%d=%s", j, addr(j)))
			}
		}
		cmd := exec.Command(filepath.Join(builtDir, "dprnode"),
			"-graph", graph, "-k", "3", "-index", fmt.Sprint(i),
			"-listen", addr(i), "-peers", strings.Join(peers, ","))
		sb := &syncBuf{}
		cmd.Stdout = sb
		cmd.Stderr = sb
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting node %d: %v", i, err)
		}
		outputs[i] = sb
		defer func() {
			cmd.Process.Signal(os.Interrupt)
			cmd.Wait()
		}()
	}
	// Each node reports status every 5 s; wait for the first reports.
	deadline := time.Now().Add(30 * time.Second)
	for {
		ready := 0
		for i := range outputs {
			out := outputs[i].String()
			if strings.Contains(out, "loops=") && !strings.Contains(out, "loops=0 ") {
				ready++
			}
		}
		if ready == 3 {
			break
		}
		if time.Now().After(deadline) {
			for i := range outputs {
				t.Logf("node %d output:\n%s", i, outputs[i].String())
			}
			t.Fatal("nodes did not report progress in time")
		}
		time.Sleep(200 * time.Millisecond)
	}
	for i := range outputs {
		out := outputs[i].String()
		if !strings.Contains(out, "listening on") {
			t.Fatalf("node %d never listened:\n%s", i, out)
		}
	}
}

// TestGraphVersion1Rejected feeds a version-1 binary header to both
// -graph consumers: each must exit non-zero naming the unsupported
// version, not panic and not misparse it as text.
func TestGraphVersion1Rejected(t *testing.T) {
	graph := filepath.Join(t.TempDir(), "v1.bin")
	run(t, "genweb", "-pages", "500", "-out", graph)
	data, err := os.ReadFile(graph)
	if err != nil {
		t.Fatal(err)
	}
	data[8] = 1 // the version field
	if err := os.WriteFile(graph, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"dprsim", "-exp", "fig7", "-graph", graph},
		{"dprnode", "-graph", graph, "-k", "1", "-index", "0", "-listen", "127.0.0.1:0"},
	} {
		out, err := exec.Command(filepath.Join(builtDir, args[0]), args[1:]...).CombinedOutput()
		if err == nil {
			t.Fatalf("%s accepted a version-1 graph:\n%s", args[0], out)
		}
		if !strings.Contains(string(out), "version 1 not supported") || strings.Contains(string(out), "panic") {
			t.Fatalf("%s: want a version-1 rejection, got:\n%s", args[0], out)
		}
	}
}
