// Command dprsim runs the paper's simulated experiments and prints
// their tables or CSV curves.
//
// Experiments:
//
//	dprsim -exp fig6                # relative error over time (K=1000)
//	dprsim -exp fig7                # monotone average rank (K=100)
//	dprsim -exp fig8                # iterations vs ranker count
//	dprsim -exp transmission        # direct vs indirect measured traffic
//	dprsim -exp traffic             # §4.4 per-iteration traffic from telemetry
//	dprsim -exp bandwidth           # convergence vs node uplink bandwidth
//	dprsim -exp cut                 # §4.1 partition comparison
//	dprsim -exp hops                # overlay hop counts vs N
//	dprsim -exp faults              # convergence under injected message faults
//	dprsim -exp churn               # convergence with rankers crashing mid-run
//	dprsim -exp scale               # DPR1/DPR2 at N = 10³/10⁴/10⁵ with model validation
//	dprsim -exp degrade             # degraded serving under partition/straggler faults
//
// Scale the workload with -pages / -sites; write curves as CSV with
// -csv FILE.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"p2prank/internal/cliflags"
	"p2prank/internal/core"
	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/experiments"
	"p2prank/internal/metrics"
	"p2prank/internal/search"
	"p2prank/internal/serve"
	"p2prank/internal/webgraph"
)

func main() {
	var (
		exp     = flag.String("exp", "fig6", "experiment: fig6|fig7|fig8|transmission|traffic|bandwidth|cut|hops|faults|churn|scale|serve|degrade")
		pages   = flag.Int("pages", 20000, "crawl size")
		sites   = flag.Int("sites", 100, "site count (the paper's dataset has 100)")
		seed    = cliflags.Seed(flag.CommandLine)
		k       = flag.Int("k", 0, "ranker count (0 = the figure's paper value)")
		ks      = flag.String("ks", "", "comma-separated ranker counts for sweeps (fig8/transmission/traffic/hops)")
		maxTime = flag.Float64("maxtime", 90, "virtual-time horizon for fig6/fig7")
		csvPath = flag.String("csv", "", "write curves as CSV to this file")
		graph   = flag.String("graph", "", "rank this crawl file instead of generating one (text or version-2 binary)")
		gstore  = flag.String("graphstore", "disk", "scale-experiment graph store: disk (generate to a temp file, mmap it) or mem")
		gengen  = flag.String("gengraph", "", "internal: write the -pages/-sites/-seed workload to this path in mapped format and exit")
		queries = flag.Int("queries", 5000, "serve-experiment query count per K")
		srvAddr = cliflags.ServeAddr(flag.CommandLine)
		qps     = cliflags.QPS(flag.CommandLine)
		topk    = cliflags.TopK(flag.CommandLine)
	)
	flag.Parse()

	if *gengen != "" {
		// Re-exec child mode for -graphstore disk: generation's transient
		// heap lands in this short-lived process, not the measured parent.
		w := experiments.Workload{Pages: *pages, Sites: *sites, Seed: *seed}
		if err := w.WriteToDisk(*gengen); err != nil {
			fatal(err)
		}
		return
	}

	w := experiments.Workload{Pages: *pages, Sites: *sites, Seed: *seed}
	if *graph != "" {
		src, err := core.OpenCrawl(*graph)
		if err != nil {
			fatal(err)
		}
		defer src.Close()
		w.Source = src
	}
	switch *exp {
	case "fig6":
		kk := pick(*k, 1000)
		res, err := experiments.Fig6(w, kk, *maxTime)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Figure 6: DPR1 relative error (%%) over time, K=%d\n", kk)
		emitCurves(res, *csvPath)
	case "fig7":
		kk := pick(*k, 100)
		res, err := experiments.Fig7(w, kk, *maxTime)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Figure 7: DPR1 average rank over time (monotone), K=%d\n", kk)
		emitCurves(res, *csvPath)
	case "fig8":
		counts := parseKs(*ks, []int{2, 10, 100, 1000})
		rows, err := experiments.Fig8(w, counts)
		if err != nil {
			fatal(err)
		}
		fmt.Println("Figure 8: iterations to relative error 0.01% (p=1, T1=T2=15)")
		fmt.Print(experiments.RenderFig8(rows))
	case "transmission":
		counts := parseKs(*ks, []int{8, 16, 32, 64})
		rows, err := experiments.Transmission(w, counts, 30)
		if err != nil {
			fatal(err)
		}
		fmt.Println("§4.4: measured per-iteration traffic vs formulas 4.1–4.4")
		fmt.Print(experiments.RenderTransmission(rows))
	case "traffic":
		counts := parseKs(*ks, []int{8, 16, 32, 64})
		rows, err := experiments.Traffic(w, counts, 30)
		if err != nil {
			fatal(err)
		}
		fmt.Println("§4.4: per-iteration message/data counts from the telemetry seam")
		fmt.Print(experiments.RenderTraffic(rows))
	case "bandwidth":
		kk := pick(*k, 16)
		rows, err := experiments.ConvergenceVsBandwidth(w, kk,
			[]float64{0, 100000, 20000, 2000, 200}, *maxTime*10)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("§4.5 measured: convergence vs per-node uplink bandwidth, K=%d\n", kk)
		fmt.Print(experiments.RenderBandwidth(rows))
	case "faults":
		kk := pick(*k, 16)
		rows, err := experiments.Faults(w, kk, []float64{0, 0.1, 0.3, 0.5}, *maxTime*10)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Fault injection: DPR1 convergence under message drops, K=%d\n", kk)
		fmt.Print(experiments.RenderFaults(rows))
	case "churn":
		kk := pick(*k, 16)
		// Sweep none → half the rankers crashing (0, 2, 4, 8 at the
		// default K=16), scaled to whatever -k was given.
		crashes := []int{0}
		for c := kk / 8; c <= kk/2 && c > 0; c *= 2 {
			crashes = append(crashes, c)
		}
		rows, err := experiments.Churn(w, kk, crashes, *maxTime*10)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Churn: DPR1 convergence with crash/checkpoint-restart rankers, K=%d\n", kk)
		fmt.Print(experiments.RenderChurn(rows))
	case "scale":
		counts := parseKs(*ks, []int{1000, 10000, 100000})
		rows, err := runScale(counts, *seed, *gstore)
		if err != nil {
			fatal(err)
		}
		fmt.Println("Paper scale: DPR under indirect transmission, 20 pages/ranker, batched delivery")
		fmt.Print(experiments.RenderScale(rows))
	case "serve":
		counts := parseKs(*ks, []int{1000, 10000})
		rows, err := runServe(counts, *seed, *queries, *qps, *topk, *srvAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Println("Serving tier: distributed top-k over published rank snapshots, 20 pages/ranker")
		fmt.Print(experiments.RenderServe(rows))
	case "degrade":
		kk := pick(*k, 256)
		rows, err := runDegrade(kk, *seed, *queries, *qps, *topk)
		if err != nil {
			fatal(err)
		}
		fmt.Println("Degraded serving: admission + hedged fan-out under partition/straggler faults")
		fmt.Print(experiments.RenderDegrade(rows))
	case "cut":
		kk := pick(*k, 32)
		rows, err := experiments.PartitionCut(w, kk)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("§4.1: partition cut at K=%d\n%s", kk, experiments.RenderCut(rows))
	case "hops":
		counts := parseKs(*ks, []int{100, 1000, 10000})
		for _, kind := range []engine.OverlayKind{engine.Pastry, engine.Chord} {
			rows, err := experiments.OverlayHops(kind, counts, 1000, *seed)
			if err != nil {
				fatal(err)
			}
			t := metrics.NewTable("overlay", "N", "measured hops", "paper model")
			for _, r := range rows {
				t.AddRow(kind, r.N, fmt.Sprintf("%.2f", r.Hops), fmt.Sprintf("%.2f", r.PaperH))
			}
			fmt.Print(t.String())
		}
	default:
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
}

// runScale sweeps the scale experiment over ranker populations,
// measuring what the simulation-path packages are forbidden to touch
// (the nowallclock analyzer): wall-clock time per run, process peak RSS,
// and events per wall second. Runs go in ascending K so the monotone
// VmHWM high-water mark tracks each decade's own peak.
func runScale(counts []int, seed uint64, store string) ([]*experiments.ScaleRow, error) {
	if store != "disk" && store != "mem" {
		return nil, fmt.Errorf("unknown -graphstore %q (want disk or mem)", store)
	}
	var rows []*experiments.ScaleRow
	for _, kk := range counts {
		w := experiments.ScaleWorkload(kk, seed)
		cleanup := func() {}
		if store == "disk" {
			src, done, err := mappedWorkload(w)
			if err != nil {
				return nil, err
			}
			w.Source = src
			cleanup = done
		}
		for _, alg := range []dprcore.Algorithm{dprcore.DPR1, dprcore.DPR2} {
			fmt.Fprintf(os.Stderr, "dprsim: scale %v K=%d pages=%d store=%s...\n", alg, kk, w.Pages, store)
			start := time.Now()
			row, err := experiments.ScaleRun(w, kk, alg, experiments.ScaleMaxTime)
			if err != nil {
				cleanup()
				return nil, err
			}
			row.WallSeconds = time.Since(start).Seconds()
			row.PeakRSSMB = peakRSSMB()
			if row.WallSeconds > 0 {
				row.EventsPerSec = float64(row.Events) / row.WallSeconds
			}
			rows = append(rows, row)
		}
		cleanup()
	}
	return rows, nil
}

// runServe sweeps the serving benchmark over ranker populations. The
// deterministic half (crawl, ranks, shards, snapshot publishing, query
// plan) comes from experiments.ServeBench; this side owns the
// wall-clock query storm — latency samples, optional -qps pacing, and
// a mid-storm staleness exercise (ticks then a republish) so the
// reported max staleness reflects a live system, not a frozen store.
// With -serve set, the first K's frontend is then exposed over HTTP
// until the process is killed.
func runServe(counts []int, seed uint64, queries, qps, topk int, srvAddr string) ([]experiments.ServeRow, error) {
	var rows []experiments.ServeRow
	for _, kk := range counts {
		fmt.Fprintf(os.Stderr, "dprsim: serve K=%d queries=%d...\n", kk, queries)
		b, err := experiments.NewServeBench(experiments.ServeWorkload(kk, seed), kk, queries)
		if err != nil {
			return nil, err
		}
		q := b.Frontend().NewQuerier()
		var (
			resp      search.Response
			lat       = make([]float64, 0, queries)
			results   int64
			shards    int64
			hops      int64
			maxStale  int64
			plan      = b.Queries()
			tickEvery = queries / 8
		)
		var interval time.Duration
		if qps > 0 {
			interval = time.Duration(float64(time.Second) / float64(qps))
		}
		start := time.Now()
		next := start
		for i, req := range plan {
			if tickEvery > 0 && i > 0 && i%tickEvery == 0 {
				b.Tick() // rankers commit a round without publishing
				if i == 5*tickEvery {
					if err := b.Republish(); err != nil {
						return nil, err
					}
				}
			}
			if interval > 0 {
				next = next.Add(interval)
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
			}
			req.K = topk
			t0 := time.Now()
			if err := q.Serve(req, &resp); err != nil {
				return nil, fmt.Errorf("serve K=%d query %v: %w", kk, req.Terms, err)
			}
			lat = append(lat, time.Since(t0).Seconds())
			results += int64(len(resp.Postings))
			shards += int64(resp.Cost.Responses)
			hops += int64(resp.Cost.LookupHops)
			if resp.Staleness > maxStale {
				maxStale = resp.Staleness
			}
		}
		wall := time.Since(start).Seconds()
		row := b.Finish(int64(len(plan)), results, shards, hops, maxStale)
		row.WallSeconds = wall
		if wall > 0 {
			row.AchievedQPS = float64(len(plan)) / wall
		}
		row.P50Micros, row.P99Micros = experiments.LatencyMicros(lat)
		rows = append(rows, row)

		if srvAddr != "" && kk == counts[0] {
			ln, err := net.Listen("tcp", srvAddr)
			if err != nil {
				return nil, err
			}
			h := serve.NewHandler(b.Frontend(), topk, nil)
			fmt.Printf("serving: http://%s/search?terms=0,1&k=%d\n", ln.Addr(), topk)
			if err := http.Serve(ln, h.Mux()); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// runDegrade sweeps the degraded-serving benchmark over the fault
// lattice: partition span × straggler fraction, with the deterministic
// outcomes (sheds, coverage, rank error, recovery) from
// experiments.DegradeBench and the wall-clock half — per-query latency
// under optional -qps pacing — measured here.
func runDegrade(kk int, seed uint64, queries, qps, topk int) ([]experiments.DegradeRow, error) {
	sweep := []struct{ part, strag float64 }{
		{0, 0},
		{0.1, 0},
		{0.1, 0.25},
		{0.3, 0},
		{0.3, 0.25},
	}
	var interval time.Duration
	if qps > 0 {
		interval = time.Duration(float64(time.Second) / float64(qps))
	}
	var rows []experiments.DegradeRow
	for _, c := range sweep {
		fmt.Fprintf(os.Stderr, "dprsim: degrade K=%d queries=%d partition=%.0f%% stragglers=%.0f%%...\n",
			kk, queries, 100*c.part, 100*c.strag)
		b, err := experiments.NewDegradeBench(experiments.ServeWorkload(kk, seed), kk, queries, c.part, c.strag)
		if err != nil {
			return nil, err
		}
		var (
			resp search.Response
			lat  = make([]float64, 0, queries)
		)
		start := time.Now()
		next := start
		for i, req := range b.Queries() {
			if err := b.Advance(i); err != nil {
				return nil, err
			}
			if interval > 0 {
				next = next.Add(interval)
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
			}
			req.K = topk
			t0 := time.Now()
			serveErr := b.Serve(req, &resp)
			if serveErr == nil {
				lat = append(lat, time.Since(t0).Seconds())
			}
			if err := b.Record(i, req, &resp, serveErr); err != nil {
				return nil, fmt.Errorf("degrade K=%d query %v: %w", kk, req.Terms, err)
			}
		}
		row := b.Finish()
		row.WallSeconds = time.Since(start).Seconds()
		row.TargetQPS = qps
		if row.WallSeconds > 0 {
			row.AchievedQPS = float64(len(b.Queries())) / row.WallSeconds
		}
		row.P50Micros, row.P99Micros = experiments.LatencyMicros(lat)
		rows = append(rows, row)
	}
	return rows, nil
}

// mappedWorkload materializes w on disk in a child process (so the
// generator's transient allocations never inflate this process's VmHWM)
// and maps the file read-only. The returned func unmaps and removes it.
func mappedWorkload(w experiments.Workload) (webgraph.Store, func(), error) {
	f, err := os.CreateTemp("", "dprsim-graph-*.bin")
	if err != nil {
		return nil, nil, err
	}
	path := f.Name()
	f.Close()
	fail := func(err error) (webgraph.Store, func(), error) {
		os.Remove(path)
		return nil, nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	cmd := exec.Command(exe, "-gengraph", path,
		"-pages", strconv.Itoa(w.Pages),
		"-sites", strconv.Itoa(w.Sites),
		"-seed", strconv.FormatUint(w.Seed, 10))
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fail(fmt.Errorf("generating workload graph: %w", err))
	}
	m, err := webgraph.OpenMapped(path)
	if err != nil {
		return fail(err)
	}
	return m, func() {
		m.Close()
		os.Remove(path)
	}, nil
}

// peakRSSMB reads the process's resident-set high-water mark from
// /proc/self/status (VmHWM, in kB). 0 when unavailable (non-Linux).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

func pick(flagVal, paperVal int) int {
	if flagVal > 0 {
		return flagVal
	}
	return paperVal
}

func parseKs(s string, def []int) []int {
	if s == "" {
		return def
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fatal(fmt.Errorf("bad -ks entry %q: %w", part, err))
		}
		out = append(out, v)
	}
	return out
}

func emitCurves(res *experiments.FigureResult, csvPath string) {
	fmt.Printf("workload: %s", res.GraphStats.String())
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			fatal(err)
		}
		if err := metrics.WriteCSV(f, res.Curves...); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("curves written to %s\n", csvPath)
		return
	}
	if err := metrics.WriteCSV(os.Stdout, res.Curves...); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dprsim:", err)
	os.Exit(1)
}
