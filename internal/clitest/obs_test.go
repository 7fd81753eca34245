package clitest

import (
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var obsURLRx = regexp.MustCompile(`observability: (http://\S+)`)

// obsScrape fetches path from the node's observability server.
func obsScrape(t *testing.T, base, path string) string {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// obsRounds sums the per-ranker p2prank_rounds_total series of a
// /metrics scrape.
func obsRounds(t *testing.T, body string) int64 {
	t.Helper()
	var sum int64
	seen := false
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "p2prank_rounds_total{") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		sum += v
		seen = true
	}
	if !seen {
		t.Fatalf("p2prank_rounds_total absent:\n%s", body)
	}
	return sum
}

// TestDprnodeObsSmoke is `make obs-smoke`: boot a 3-ranker dprnode
// cluster with the observability server on an ephemeral port, scrape
// /metrics while it runs, and check the round counters advance between
// scrapes, both before and after the demo reports convergence. It also
// probes the pprof index the -obs endpoint promises.
func TestDprnodeObsSmoke(t *testing.T) {
	cmd := exec.Command(filepath.Join(builtDir, "dprnode"),
		"-demo", "-pages", "2500", "-k", "3", "-target", "1e-9",
		"-obs", "127.0.0.1:0")
	sb := &syncBuf{}
	cmd.Stdout = sb
	cmd.Stderr = sb
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(os.Interrupt)
		cmd.Wait()
	}()

	// The node announces its observability URL before ranking starts.
	var base string
	deadline := time.Now().Add(15 * time.Second)
	for base == "" {
		if m := obsURLRx.FindStringSubmatch(sb.String()); m != nil {
			base = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no observability URL announced:\n%s", sb.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	// First scrape once any ranker has completed a round.
	var first int64
	deadline = time.Now().Add(15 * time.Second)
	for {
		body := obsScrape(t, base, "/metrics")
		if !strings.Contains(body, "# TYPE p2prank_rounds_total counter") {
			t.Fatalf("scrape is not Prometheus text:\n%.300s", body)
		}
		if first = obsRounds(t, body); first > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("round counters never left zero")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Counters advance while the demo keeps iterating.
	grew := false
	for i := 0; i < 200 && !grew; i++ {
		time.Sleep(50 * time.Millisecond)
		grew = obsRounds(t, obsScrape(t, base, "/metrics")) > first
	}
	if !grew {
		t.Fatalf("rounds_total stuck at %d across scrapes", first)
	}

	if idx := obsScrape(t, base, "/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatalf("pprof index malformed:\n%.300s", idx)
	}

	// The endpoint outlives convergence: once the demo reports it has
	// reached -target, /metrics still answers and the cluster keeps
	// ranking until it is interrupted.
	deadline = time.Now().Add(60 * time.Second)
	for !strings.Contains(sb.String(), "converged to relative error") {
		if time.Now().After(deadline) {
			t.Fatalf("demo never reported convergence:\n%s", sb.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	converged := obsRounds(t, obsScrape(t, base, "/metrics"))
	grew = false
	for i := 0; i < 200 && !grew; i++ {
		time.Sleep(50 * time.Millisecond)
		grew = obsRounds(t, obsScrape(t, base, "/metrics")) > converged
	}
	if !grew {
		t.Fatalf("rounds_total stuck at %d after convergence", converged)
	}
}
