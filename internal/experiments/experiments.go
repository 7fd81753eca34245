// Package experiments packages the paper's evaluation section as
// runnable presets: one function per figure/table that builds the
// workload, sweeps the parameters, and returns the series or rows the
// paper plots. cmd/dprsim and the top-level benchmark harness both
// consume these, so the numbers printed by either always come from the
// same code.
//
// Scale note: the paper ranks ~1M real pages (Google programming
// contest crawl, 100 .edu sites) on a simulator. The presets default to
// a generator-calibrated crawl a few tens of thousands of pages large —
// the same site count and link statistics, sized to run in seconds.
// Pass a bigger Pages to approach the paper's scale.
package experiments

import (
	"fmt"

	"p2prank/internal/bwmodel"
	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/metrics"
	"p2prank/internal/overlay"
	"p2prank/internal/par"
	"p2prank/internal/partition"
	"p2prank/internal/simnet"
	"p2prank/internal/telemetry"
	"p2prank/internal/transport"
	"p2prank/internal/webgraph"
	"p2prank/internal/xrand"
)

// defaultAlpha mirrors engine.Config's Alpha default; presets that rely
// on the default pass it to engine.Reference explicitly.
const defaultAlpha = 0.85

// firstErr returns the first non-nil error of a parallel sweep — the
// same one a serial loop would have stopped at.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Workload describes the synthetic crawl a preset runs on.
type Workload struct {
	// Pages is the crawl size (default 20000).
	Pages int
	// Sites is the number of sites (default 100, the paper's count).
	Sites int
	// Seed drives generation and the experiment (default 1).
	Seed uint64
	// Source, if set, is used verbatim instead of generating — this is
	// how presets run against an mmap-backed on-disk graph (or a real
	// crawl) rather than an in-memory synthetic one. The caller keeps
	// ownership: a mapped source must stay open for the preset's
	// duration.
	Source webgraph.Store
}

func (w *Workload) defaults() {
	if w.Pages == 0 {
		w.Pages = 20000
	}
	if w.Sites == 0 {
		w.Sites = 100
	}
	if w.Seed == 0 {
		w.Seed = 1
	}
}

// Generate builds the workload's crawl, or returns Source when one is
// set.
func (w Workload) Generate() (webgraph.Store, error) {
	if w.Source != nil {
		return w.Source, nil
	}
	w.defaults()
	cfg := webgraph.DefaultGenConfig(w.Pages)
	if w.Sites <= w.Pages {
		cfg.Sites = w.Sites
	}
	cfg.Seed = w.Seed
	return webgraph.Generate(cfg)
}

// WriteToDisk generates the workload's crawl and writes it at path in
// the version-2 mapped format, without retaining the in-memory graph.
// Pair with webgraph.OpenMapped to run presets at scales where the
// graph must not live in this process's heap.
func (w Workload) WriteToDisk(path string) error {
	g, err := w.Generate()
	if err != nil {
		return err
	}
	return webgraph.WriteMappedFile(path, g)
}

// curveParams are the three (p, T1, T2) settings of Figures 6 and 7.
var curveParams = []struct {
	name     string
	sendProb float64
	t1, t2   float64
}{
	{"A (p=1, T1=0, T2=6)", 1.0, 0, 6},
	{"B (p=0.7, T1=0, T2=6)", 0.7, 0, 6},
	{"C (p=0.7, T1=0, T2=15)", 0.7, 0, 15},
}

// FigureResult is a set of named curves over virtual time.
type FigureResult struct {
	// Curves holds one series per paper curve (A, B, C).
	Curves []*metrics.Series
	// Graph statistics for the caption.
	GraphStats webgraph.Stats
}

// Fig6 reproduces Figure 6: relative error of DPR1 against centralized
// PageRank over time, at K rankers (paper: 1000), for the three
// loss/speed settings.
func Fig6(w Workload, k int, maxTime float64) (*FigureResult, error) {
	return errorOverTime(w, k, maxTime, func(s *engine.Sample) float64 {
		return s.RelErr * 100 // the paper plots percent
	}, "relative error (%)")
}

// Fig7 reproduces Figure 7: the monotone average-rank sequence of DPR1
// at K rankers (paper: 100). The converged level sits near 0.25–0.3
// because 8/15 of links leave the dataset.
func Fig7(w Workload, k int, maxTime float64) (*FigureResult, error) {
	return errorOverTime(w, k, maxTime, func(s *engine.Sample) float64 {
		return s.AvgRank
	}, "average rank")
}

func errorOverTime(w Workload, k int, maxTime float64, metric func(*engine.Sample) float64, _ string) (*FigureResult, error) {
	if k <= 0 {
		return nil, fmt.Errorf("experiments: k = %d, must be positive", k)
	}
	if maxTime <= 0 {
		return nil, fmt.Errorf("experiments: maxTime = %v, must be positive", maxTime)
	}
	w.defaults()
	g, err := w.Generate()
	if err != nil {
		return nil, err
	}
	res := &FigureResult{GraphStats: webgraph.ComputeStats(g)}
	// The three curves share one graph, so they share one centralized
	// reference (the dominant fixed cost) and run as independent
	// simulations in parallel — each owns its simulator and rng.
	ref, err := engine.Reference(g, defaultAlpha)
	if err != nil {
		return nil, err
	}
	curves := make([]*metrics.Series, len(curveParams))
	errs := make([]error, len(curveParams))
	par.Default().Run(len(curveParams), func(ci int) {
		cp := curveParams[ci]
		cfg := engine.Config{
			Params:      dprcore.Params{Alg: dprcore.DPR1, SendProb: cp.sendProb, T1: cp.t1, T2: cp.t2},
			Graph:       g,
			K:           k,
			Seed:        w.Seed,
			Reference:   ref,
			SampleEvery: 1,
			MaxTime:     maxTime,
			Transport:   transport.Indirect,
			Strategy:    partition.BySite,
		}
		run, err := engine.Run(cfg)
		if err != nil {
			errs[ci] = fmt.Errorf("experiments: curve %q: %w", cp.name, err)
			return
		}
		s := metrics.NewSeries(cp.name)
		for i := range run.Samples {
			s.Add(run.Samples[i].Time, metric(&run.Samples[i]))
		}
		curves[ci] = s
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	res.Curves = curves
	return res, nil
}

// Fig8Row is one point of Figure 8: iterations to reach the threshold
// relative error for each algorithm at a ranker population.
type Fig8Row struct {
	K    int
	DPR1 float64
	DPR2 float64
	CPR  float64
}

// Fig8 reproduces Figure 8: the number of iterations each algorithm
// needs to reach relative error 0.01%, versus the number of page
// rankers (paper: 2..10000; p=1, T1=T2=15). Pages are partitioned by
// site hash, the paper's recommended strategy; note that a 100-site
// crawl occupies at most 100 rankers, which is also why the paper's
// curve is flat from K=100 to K=10000.
func Fig8(w Workload, ks []int) ([]Fig8Row, error) {
	if len(ks) == 0 {
		return nil, fmt.Errorf("experiments: no ranker counts")
	}
	w.defaults()
	g, err := w.Generate()
	if err != nil {
		return nil, err
	}
	const target = 1e-4 // the paper's 0.01%
	ref, err := engine.Reference(g, defaultAlpha)
	if err != nil {
		return nil, err
	}
	cpr, err := engine.CPRIterationsFrom(g, defaultAlpha, target, ref)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig8Row, len(ks))
	for i, k := range ks {
		if k <= 0 {
			return nil, fmt.Errorf("experiments: k = %d, must be positive", k)
		}
		rows[i] = Fig8Row{K: k, CPR: float64(cpr)}
	}
	// Every (K, algorithm) cell is an independent simulation; run the
	// grid in parallel, each job writing only its own row field.
	algs := []dprcore.Algorithm{dprcore.DPR1, dprcore.DPR2}
	errs := make([]error, len(ks)*len(algs))
	par.Default().Run(len(errs), func(job int) {
		k, alg := ks[job/len(algs)], algs[job%len(algs)]
		cfg := engine.Config{
			Params:       dprcore.Params{Alg: alg, T1: 15, T2: 15},
			Graph:        g,
			K:            k,
			Seed:         w.Seed,
			Reference:    ref,
			SampleEvery:  5,
			MaxTime:      6000,
			TargetRelErr: target,
			Strategy:     partition.BySite,
			Transport:    transport.Indirect,
		}
		run, err := engine.Run(cfg)
		if err != nil {
			errs[job] = fmt.Errorf("experiments: fig8 K=%d %v: %w", k, alg, err)
			return
		}
		if run.ConvergedAt < 0 {
			errs[job] = fmt.Errorf("experiments: fig8 K=%d %v did not converge (rel err %v)",
				k, alg, run.RelErr)
			return
		}
		switch alg {
		case dprcore.DPR1:
			rows[job/len(algs)].DPR1 = run.LoopsAtConvergence
		case dprcore.DPR2:
			rows[job/len(algs)].DPR2 = run.LoopsAtConvergence
		}
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderFig8 formats Figure 8 rows as a table.
func RenderFig8(rows []Fig8Row) string {
	t := metrics.NewTable("# of Page Rankers", "DPR1", "DPR2", "CPR")
	for _, r := range rows {
		t.AddRow(r.K, fmt.Sprintf("%.1f", r.DPR1), fmt.Sprintf("%.1f", r.DPR2), fmt.Sprintf("%.0f", r.CPR))
	}
	return t.String()
}

// TransmissionRow compares measured per-iteration traffic of the two
// transmission schemes against the closed-form model (formulas
// 4.1–4.4) at one ranker population.
type TransmissionRow struct {
	K int
	// Measured per-iteration means.
	DirectMsgs, IndirectMsgs   float64
	DirectBytes, IndirectBytes float64
	// Model predictions with the measured h and g plugged in.
	ModelDirectMsgs, ModelIndirectMsgs float64
	AvgHops, AvgNeighbors              float64
}

// Transmission measures both transports at each ranker population and
// returns rows pairing measurement with the §4.4 model. Pages are
// partitioned by URL hash so all ranker pairs communicate, the regime
// formulas 4.1–4.4 assume.
func Transmission(w Workload, ks []int, timePerRun float64) ([]TransmissionRow, error) {
	if len(ks) == 0 {
		return nil, fmt.Errorf("experiments: no ranker counts")
	}
	if timePerRun <= 0 {
		return nil, fmt.Errorf("experiments: timePerRun must be positive")
	}
	w.defaults()
	g, err := w.Generate()
	if err != nil {
		return nil, err
	}
	ref, err := engine.Reference(g, defaultAlpha)
	if err != nil {
		return nil, err
	}
	rows := make([]TransmissionRow, len(ks))
	for i, k := range ks {
		rows[i] = TransmissionRow{K: k}
	}
	// One independent simulation per (K, transport) cell; the Direct and
	// Indirect jobs for a row write disjoint fields.
	kinds := []transport.Kind{transport.Direct, transport.Indirect}
	errs := make([]error, len(ks)*len(kinds))
	par.Default().Run(len(errs), func(job int) {
		ki, kind := job/len(kinds), kinds[job%len(kinds)]
		k := ks[ki]
		cfg := engine.Config{
			Params:      dprcore.Params{Alg: dprcore.DPR1, T1: 3, T2: 3},
			Graph:       g,
			K:           k,
			Seed:        w.Seed,
			Reference:   ref,
			SampleEvery: timePerRun, // one sample at the end
			MaxTime:     timePerRun,
			Strategy:    partition.ByPage,
			Transport:   kind,
		}
		run, err := engine.Run(cfg)
		if err != nil {
			errs[job] = fmt.Errorf("experiments: transmission K=%d %v: %w", k, kind, err)
			return
		}
		iters := run.LoopsAtConvergence
		if iters == 0 {
			iters = 1
		}
		msgs := float64(run.NetStats.MessagesSent) / iters
		bytes := float64(run.NetStats.BytesSent) / iters
		row := &rows[ki]
		switch kind {
		case transport.Direct:
			row.DirectMsgs, row.DirectBytes = msgs, bytes
		case transport.Indirect:
			row.IndirectMsgs, row.IndirectBytes = msgs, bytes
			row.AvgHops, row.AvgNeighbors = run.AvgHops, run.AvgNeighbors
		}
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	for i := range rows {
		p := bwmodel.Params{
			W: float64(w.Pages), N: float64(rows[i].K),
			H: rows[i].AvgHops, L: 100, R: 48, G: rows[i].AvgNeighbors,
		}
		rows[i].ModelDirectMsgs = p.DirectMessages()
		rows[i].ModelIndirectMsgs = p.IndirectMessages()
	}
	return rows, nil
}

// RenderTransmission formats transmission rows as a table.
func RenderTransmission(rows []TransmissionRow) string {
	t := metrics.NewTable("K", "direct msgs/iter", "indirect msgs/iter",
		"model S_dt", "model S_it", "direct B/iter", "indirect B/iter")
	for _, r := range rows {
		t.AddRow(r.K,
			fmt.Sprintf("%.0f", r.DirectMsgs), fmt.Sprintf("%.0f", r.IndirectMsgs),
			fmt.Sprintf("%.0f", r.ModelDirectMsgs), fmt.Sprintf("%.0f", r.ModelIndirectMsgs),
			fmt.Sprintf("%.0f", r.DirectBytes), fmt.Sprintf("%.0f", r.IndirectBytes))
	}
	return t.String()
}

// TrafficRow is one §4.4 traffic measurement taken at the telemetry
// seam: per-iteration chunk, message, and payload-byte counts from the
// in-sim collector, paired with the closed-form model predictions.
type TrafficRow struct {
	K int
	// MeanRounds is the mean committed main-loop count per ranker.
	MeanRounds float64
	// ChunksPerIter counts score chunks emitted per iteration at the
	// dprcore Sender seam (before transport framing).
	ChunksPerIter float64
	// MsgsPerIter counts overlay messages per iteration: each chunk
	// weighted by its route's hop count.
	MsgsPerIter float64
	// BytesPerIter is the per-iteration payload volume (links × l).
	BytesPerIter float64
	// AvgHops is the measured mean overlay hops per chunk.
	AvgHops float64
	// ModelMsgs is formula 4.3's S_it = g·N with the measured overlay
	// neighbor count plugged in.
	ModelMsgs float64
	// ModelBytes is formula 4.1's D_it = h·l·W with the measured h and
	// the links actually shipped per iteration as W·l.
	ModelBytes float64
}

// Traffic reproduces the §4.4 message/data cost table from telemetry:
// each ranker population runs DPR1 under indirect transmission with a
// SimCollector attached, and every measured column comes from the
// collector's Summary — counted at the dprcore seam the paper's model
// describes, not reverse-engineered from transport totals. Pages are
// partitioned by URL hash so all ranker pairs communicate, the regime
// the formulas assume.
func Traffic(w Workload, ks []int, timePerRun float64) ([]TrafficRow, error) {
	if len(ks) == 0 {
		return nil, fmt.Errorf("experiments: no ranker counts")
	}
	if timePerRun <= 0 {
		return nil, fmt.Errorf("experiments: timePerRun must be positive")
	}
	w.defaults()
	g, err := w.Generate()
	if err != nil {
		return nil, err
	}
	ref, err := engine.Reference(g, defaultAlpha)
	if err != nil {
		return nil, err
	}
	rows := make([]TrafficRow, len(ks))
	errs := make([]error, len(ks))
	par.Default().Run(len(ks), func(i int) {
		k := ks[i]
		if k <= 0 {
			errs[i] = fmt.Errorf("experiments: k = %d, must be positive", k)
			return
		}
		col := telemetry.NewSimCollector(k)
		cfg := engine.Config{
			Params:      dprcore.Params{Alg: dprcore.DPR1, T1: 3, T2: 3, Observer: col},
			Graph:       g,
			K:           k,
			Seed:        w.Seed,
			Reference:   ref,
			SampleEvery: timePerRun, // one sample at the end
			MaxTime:     timePerRun,
			Strategy:    partition.ByPage,
			Transport:   transport.Indirect,
		}
		run, err := engine.Run(cfg)
		if err != nil {
			errs[i] = fmt.Errorf("experiments: traffic K=%d: %w", k, err)
			return
		}
		sum := run.Telemetry
		if sum == nil {
			errs[i] = fmt.Errorf("experiments: traffic K=%d: no telemetry summary", k)
			return
		}
		iters := sum.MeanRounds()
		if iters == 0 {
			iters = 1
		}
		h := sum.MeanChunkHops()
		bytesPerIter := float64(sum.PayloadBytes) / iters
		rows[i] = TrafficRow{
			K:             k,
			MeanRounds:    sum.MeanRounds(),
			ChunksPerIter: float64(sum.Chunks) / iters,
			MsgsPerIter:   float64(sum.ChunkHops) / iters,
			BytesPerIter:  bytesPerIter,
			AvgHops:       h,
			ModelMsgs: bwmodel.Params{
				W: float64(w.Pages), N: float64(k),
				H: h, L: telemetry.DefaultBytesPerLink, R: 48, G: run.AvgNeighbors,
			}.IndirectMessages(),
			ModelBytes: h * bytesPerIter,
		}
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTraffic formats §4.4 traffic rows as a table.
func RenderTraffic(rows []TrafficRow) string {
	t := metrics.NewTable("K", "rounds/ranker", "chunks/iter", "msgs/iter",
		"payload B/iter", "hops/chunk", "model S_it", "model D_it")
	for _, r := range rows {
		t.AddRow(r.K,
			fmt.Sprintf("%.1f", r.MeanRounds),
			fmt.Sprintf("%.0f", r.ChunksPerIter), fmt.Sprintf("%.0f", r.MsgsPerIter),
			fmt.Sprintf("%.0f", r.BytesPerIter), fmt.Sprintf("%.2f", r.AvgHops),
			fmt.Sprintf("%.0f", r.ModelMsgs), fmt.Sprintf("%.0f", r.ModelBytes))
	}
	return t.String()
}

// CutRow is the §4.1 partition comparison at one strategy.
type CutRow struct {
	Strategy partition.Strategy
	CutFrac  float64
	MaxPages int
	MinPages int
}

// PartitionCut measures the fraction of internal links crossing ranker
// boundaries under each partitioning strategy — the evidence behind
// §4.1's recommendation of hash-by-site.
func PartitionCut(w Workload, k int) ([]CutRow, error) {
	if k <= 0 {
		return nil, fmt.Errorf("experiments: k = %d, must be positive", k)
	}
	w.defaults()
	g, err := w.Generate()
	if err != nil {
		return nil, err
	}
	ov, err := engine.BuildOverlay(engine.Pastry, k)
	if err != nil {
		return nil, err
	}
	var rows []CutRow
	for _, strat := range []partition.Strategy{partition.BySite, partition.ByPage, partition.Random} {
		a, err := partition.Assign(g, ov, strat, w.Seed)
		if err != nil {
			return nil, err
		}
		c := partition.Cut(g, a)
		rows = append(rows, CutRow{Strategy: strat, CutFrac: c.CutFrac(), MaxPages: c.MaxPages, MinPages: c.MinPages})
	}
	return rows, nil
}

// RenderCut formats partition-cut rows.
func RenderCut(rows []CutRow) string {
	t := metrics.NewTable("strategy", "cut fraction", "max pages/ranker", "min pages/ranker")
	for _, r := range rows {
		t.AddRow(r.Strategy, fmt.Sprintf("%.4f", r.CutFrac), r.MaxPages, r.MinPages)
	}
	return t.String()
}

// HopsRow pairs an overlay population with its measured mean lookup
// hops — the h(N) inputs of Table 1.
type HopsRow struct {
	N       int
	Hops    float64
	PaperH  float64
	Overlay engine.OverlayKind
}

// OverlayHops measures mean lookup hop counts at each population.
func OverlayHops(kind engine.OverlayKind, ns []int, samples int, seed uint64) ([]HopsRow, error) {
	if samples <= 0 {
		return nil, fmt.Errorf("experiments: samples must be positive")
	}
	rng := xrand.New(seed)
	rows := make([]HopsRow, 0, len(ns))
	for _, n := range ns {
		ov, err := engine.BuildOverlay(kind, n)
		if err != nil {
			return nil, err
		}
		h, err := overlay.AvgHops(ov, samples, rng)
		if err != nil {
			return nil, err
		}
		rows = append(rows, HopsRow{N: n, Hops: h, PaperH: bwmodel.PastryHops(float64(n)), Overlay: kind})
	}
	return rows, nil
}

// BandwidthRow records convergence under one per-node bandwidth budget
// — the measured counterpart of §4.5's constraint 4.7.
type BandwidthRow struct {
	// Bandwidth is the per-node uplink in bytes per virtual time unit
	// (0 = unlimited).
	Bandwidth float64
	// ConvergedAt is the virtual time the target error was reached, or
	// -1 when the horizon expired first.
	ConvergedAt float64
	// FinalRelErr is the relative error at the end of the run.
	FinalRelErr float64
}

// ConvergenceVsBandwidth reruns the same DPR1 workload under shrinking
// per-node uplink budgets. The paper's §4.5 argues analytically that
// bandwidth bounds the iteration interval and hence convergence time;
// here the simulator serializes every message through the sender's
// uplink, so the effect is measured instead of modeled.
func ConvergenceVsBandwidth(w Workload, k int, bws []float64, maxTime float64) ([]BandwidthRow, error) {
	if k <= 0 {
		return nil, fmt.Errorf("experiments: k = %d, must be positive", k)
	}
	if len(bws) == 0 {
		return nil, fmt.Errorf("experiments: no bandwidth values")
	}
	w.defaults()
	g, err := w.Generate()
	if err != nil {
		return nil, err
	}
	for _, bw := range bws {
		if bw < 0 {
			return nil, fmt.Errorf("experiments: negative bandwidth %v", bw)
		}
	}
	ref, err := engine.Reference(g, defaultAlpha)
	if err != nil {
		return nil, err
	}
	rows := make([]BandwidthRow, len(bws))
	errs := make([]error, len(bws))
	par.Default().Run(len(bws), func(i int) {
		bw := bws[i]
		cfg := engine.Config{
			Params:       dprcore.Params{Alg: dprcore.DPR1, T1: 3, T2: 3},
			Graph:        g,
			K:            k,
			Seed:         w.Seed,
			Reference:    ref,
			SampleEvery:  1,
			MaxTime:      maxTime,
			TargetRelErr: 1e-4,
			Strategy:     partition.BySite,
			Transport:    transport.Indirect,
			Net: simnet.NetConfig{
				MinLatency:    0.05,
				MaxLatency:    0.15,
				NodeBandwidth: bw,
			},
		}
		run, err := engine.Run(cfg)
		if err != nil {
			errs[i] = fmt.Errorf("experiments: bandwidth %v: %w", bw, err)
			return
		}
		rows[i] = BandwidthRow{
			Bandwidth:   bw,
			ConvergedAt: run.ConvergedAt,
			FinalRelErr: run.RelErr,
		}
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderBandwidth formats bandwidth-sweep rows.
func RenderBandwidth(rows []BandwidthRow) string {
	t := metrics.NewTable("node bandwidth (B/unit)", "converged at", "final rel err")
	for _, r := range rows {
		conv := "never"
		if r.ConvergedAt >= 0 {
			conv = fmt.Sprintf("%.0f", r.ConvergedAt)
		}
		bw := "unlimited"
		if r.Bandwidth > 0 {
			bw = fmt.Sprintf("%.0f", r.Bandwidth)
		}
		t.AddRow(bw, conv, fmt.Sprintf("%.2e", r.FinalRelErr))
	}
	return t.String()
}

// FaultRow records convergence under one transport fault severity.
type FaultRow struct {
	// DropProb is the injected per-chunk drop probability.
	DropProb float64
	// ConvergedAt is the virtual time the target error was reached, or
	// -1 when the horizon expired first.
	ConvergedAt float64
	// FinalRelErr is the relative error at the end of the run.
	FinalRelErr float64
	// Dropped is how many chunks the injector discarded.
	Dropped int64
}

// Faults reruns the same DPR1 workload under increasing message-drop
// rates injected at the dprcore.FaultSender seam — loss below the
// algorithm's own SendProb parameter, the regime Theorem 4.1 says must
// still converge. Delays and duplicates ride along at a fixed low rate
// so all three fault kinds are exercised.
func Faults(w Workload, k int, drops []float64, maxTime float64) ([]FaultRow, error) {
	if k <= 0 {
		return nil, fmt.Errorf("experiments: k = %d, must be positive", k)
	}
	if len(drops) == 0 {
		return nil, fmt.Errorf("experiments: no drop probabilities")
	}
	w.defaults()
	g, err := w.Generate()
	if err != nil {
		return nil, err
	}
	ref, err := engine.Reference(g, defaultAlpha)
	if err != nil {
		return nil, err
	}
	rows := make([]FaultRow, len(drops))
	errs := make([]error, len(drops))
	par.Default().Run(len(drops), func(i int) {
		cfg := engine.Config{
			Params:       dprcore.Params{Alg: dprcore.DPR1, T1: 0, T2: 6},
			Graph:        g,
			K:            k,
			Seed:         w.Seed,
			Reference:    ref,
			SampleEvery:  2,
			MaxTime:      maxTime,
			TargetRelErr: 1e-4,
			Strategy:     partition.BySite,
			Transport:    transport.Indirect,
		}
		if drops[i] > 0 {
			cfg.Fault = dprcore.FaultConfig{
				DropProb:  drops[i],
				DelayProb: 0.05,
				MeanDelay: 5,
				DupProb:   0.05,
			}
		}
		run, err := engine.Run(cfg)
		if err != nil {
			errs[i] = fmt.Errorf("experiments: drop %v: %w", drops[i], err)
			return
		}
		rows[i] = FaultRow{
			DropProb:    drops[i],
			ConvergedAt: run.ConvergedAt,
			FinalRelErr: run.RelErr,
			Dropped:     run.FaultStats.Dropped,
		}
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return rows, nil
}

// ChurnRow records convergence under one churn severity: a number of
// rankers crashed mid-run and restarted from their checkpoints.
type ChurnRow struct {
	// Crashes is how many rankers crash (and later restart) in the run.
	Crashes int
	// ConvergedAt is the virtual time the target error was reached, or
	// -1 when the horizon expired first.
	ConvergedAt float64
	// FinalRelErr is the relative error at the end of the run.
	FinalRelErr float64
	// Retries and Acks are the reliable layer's counters.
	Retries, Acks int64
	// Recoveries is the number of checkpoint restores performed.
	Recoveries int64
}

// Churn reruns the same DPR1 workload while crashing an increasing
// number of rankers mid-run. Every run carries 10% injected loss, the
// reliable delivery layer, and round-cadence checkpoints; each crashed
// ranker restarts from its last checkpoint a fixed outage later. The
// outage windows sit early in the run so convergence has to ride out
// the churn rather than finish before it.
func Churn(w Workload, k int, crashes []int, maxTime float64) ([]ChurnRow, error) {
	if k <= 0 {
		return nil, fmt.Errorf("experiments: k = %d, must be positive", k)
	}
	if len(crashes) == 0 {
		return nil, fmt.Errorf("experiments: no crash counts")
	}
	for _, c := range crashes {
		if c < 0 || c >= k {
			return nil, fmt.Errorf("experiments: %d crashes with %d rankers", c, k)
		}
	}
	w.defaults()
	g, err := w.Generate()
	if err != nil {
		return nil, err
	}
	ref, err := engine.Reference(g, defaultAlpha)
	if err != nil {
		return nil, err
	}
	rows := make([]ChurnRow, len(crashes))
	errs := make([]error, len(crashes))
	par.Default().Run(len(crashes), func(i int) {
		// Stagger the outages across the convergence ramp (these
		// T1/T2 settings reach 1e-4 around t≈16-20): ranker j crashes
		// at 6+2j and returns 7 time units later, so the run has to
		// converge through the churn, not after it.
		events := make([]engine.ChurnEvent, crashes[i])
		for j := range events {
			events[j] = engine.ChurnEvent{
				Ranker:         j,
				CrashAt:        6 + 2*float64(j),
				RestartAt:      13 + 2*float64(j),
				FromCheckpoint: true,
			}
		}
		cfg := engine.Config{
			Params: dprcore.Params{
				Alg: dprcore.DPR1, T1: 0.5, T2: 3,
				Fault:    dprcore.FaultConfig{DropProb: 0.1},
				Reliable: dprcore.ReliableConfig{Timeout: 10},
				// Per-round checkpoints: the crashes land early in the
				// ramp, and a sparser cadence would turn them into cold
				// restarts instead of recoveries.
				Checkpoint: dprcore.CheckpointConfig{Every: 1},
			},
			Graph:        g,
			K:            k,
			Seed:         w.Seed,
			Reference:    ref,
			SampleEvery:  2,
			MaxTime:      maxTime,
			TargetRelErr: 1e-4,
			Strategy:     partition.BySite,
			Transport:    transport.Indirect,
			Churn:        events,
		}
		run, err := engine.Run(cfg)
		if err != nil {
			errs[i] = fmt.Errorf("experiments: churn %d: %w", crashes[i], err)
			return
		}
		rows[i] = ChurnRow{
			Crashes:     crashes[i],
			ConvergedAt: run.ConvergedAt,
			FinalRelErr: run.RelErr,
			Retries:     run.ReliableStats.Retries,
			Acks:        run.ReliableStats.Acks,
			Recoveries:  run.Recoveries,
		}
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderChurn formats churn-sweep rows.
func RenderChurn(rows []ChurnRow) string {
	t := metrics.NewTable("crashes", "converged at", "final rel err",
		"retries", "acks", "recoveries")
	for _, r := range rows {
		conv := "never"
		if r.ConvergedAt >= 0 {
			conv = fmt.Sprintf("%.0f", r.ConvergedAt)
		}
		t.AddRow(r.Crashes, conv, fmt.Sprintf("%.2e", r.FinalRelErr),
			r.Retries, r.Acks, r.Recoveries)
	}
	return t.String()
}

// RenderFaults formats fault-sweep rows.
func RenderFaults(rows []FaultRow) string {
	t := metrics.NewTable("drop prob", "converged at", "final rel err", "chunks dropped")
	for _, r := range rows {
		conv := "never"
		if r.ConvergedAt >= 0 {
			conv = fmt.Sprintf("%.0f", r.ConvergedAt)
		}
		t.AddRow(fmt.Sprintf("%.2f", r.DropProb), conv,
			fmt.Sprintf("%.2e", r.FinalRelErr), r.Dropped)
	}
	return t.String()
}

// ScaleRow is one decade of the paper-scale run: DPR at K rankers on a
// proportionally sized crawl, with the §4.4–4.5 model validated against
// what the run actually measured. WallSeconds, PeakRSSMB, and
// EventsPerSec are filled by the caller (cmd/dprsim): wall-clock and
// process measurements are banned inside simulation-path packages by
// the nowallclock analyzer, and belong with the process owner anyway.
type ScaleRow struct {
	K     int
	Pages int
	Alg   dprcore.Algorithm
	// RelErr is the final relative error against centralized PageRank.
	RelErr float64
	// MeanRounds is the mean committed loop count per ranker.
	MeanRounds float64
	// Events is the number of simulator events the run executed.
	Events uint64
	// Messages and Bytes are network-level send totals.
	Messages int64
	Bytes    int64
	// AvgHops is the overlay's sampled mean lookup hop count.
	AvgHops float64
	// Validation compares the bwmodel predictions against telemetry.
	Validation []bwmodel.ValidationRow

	// Caller-measured process metrics (see type comment).
	WallSeconds  float64
	PeakRSSMB    float64
	EventsPerSec float64
}

// ScaleMaxTime is the virtual-time horizon of one scale run: with
// T1 = T2 = 3 it gives every ranker ~10 iterations — enough for the
// per-iteration traffic rates to reach steady state without paying for
// a full convergence run at 10⁵ nodes.
const ScaleMaxTime = 30.0

// ScaleWorkload returns the proportionally sized crawl for K rankers:
// 20 pages per ranker (the Fig-6 ratio of 20k pages / 1k rankers),
// keeping per-ranker work constant as K sweeps 10³ → 10⁵.
func ScaleWorkload(k int, seed uint64) Workload {
	return Workload{Pages: 20 * k, Sites: 100, Seed: seed}
}

// ScaleRun executes one decade of the scale experiment: DPR under
// indirect transmission at K rankers, pages partitioned by URL hash
// (the all-pairs regime the §4.4 formulas assume), fixed network
// latency with batched delivery — the configuration the calendar-queue
// scheduler and the coalesced network layer exist for. The returned
// row carries the measured traffic and the bwmodel validation;
// reference ranks are computed per run (the graph differs per K).
func ScaleRun(w Workload, k int, alg dprcore.Algorithm, maxTime float64) (*ScaleRow, error) {
	if k <= 0 {
		return nil, fmt.Errorf("experiments: k = %d, must be positive", k)
	}
	if maxTime <= 0 {
		maxTime = ScaleMaxTime
	}
	w.defaults()
	g, err := w.Generate()
	if err != nil {
		return nil, err
	}
	col := telemetry.NewSimCollector(k)
	cfg := engine.Config{
		Params:      dprcore.Params{Alg: alg, T1: 3, T2: 3, Observer: col},
		Graph:       g,
		K:           k,
		Seed:        w.Seed,
		SampleEvery: maxTime, // one sample at the end
		MaxTime:     maxTime,
		Strategy:    partition.ByPage,
		Transport:   transport.Indirect,
		// Fixed latency makes same-instant deliveries to one node
		// coalesce; BatchDelivery turns the per-message events they
		// would have been into one pooled event per (destination,
		// instant). Off the fingerprint path: scale runs are their own
		// deterministic schedule (see simnet.NetConfig.BatchDelivery).
		Net: simnet.NetConfig{MinLatency: 0.1, MaxLatency: 0.1, BatchDelivery: true},
	}
	res, err := engine.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: scale K=%d: %w", k, err)
	}
	sum := res.Telemetry
	if sum == nil {
		return nil, fmt.Errorf("experiments: scale K=%d: no telemetry summary", k)
	}
	iters := sum.MeanRounds()
	if iters <= 0 {
		iters = 1
	}
	size := transport.DefaultSizeModel()
	ts := res.TransportStats
	obs := bwmodel.IndirectObserved{
		Hops:             res.AvgHops,
		MsgsPerIter:      float64(ts.DataMessages) / iters,
		SeamBytesPerIter: float64(sum.PayloadBytes) / iters,
		WireBytesPerIter: float64(ts.DataBytes-ts.DataMessages*size.HeaderBytes) / iters,
		IterInterval:     maxTime / iters,
		NodeSendRate:     float64(res.NetStats.BytesSent) / (float64(k) * maxTime),
	}
	p := bwmodel.Params{
		W: float64(w.Pages), N: float64(k), H: bwmodel.PastryHops(float64(k)),
		L: telemetry.DefaultBytesPerLink, R: 48, G: res.AvgNeighbors,
	}
	return &ScaleRow{
		K:          k,
		Pages:      w.Pages,
		Alg:        alg,
		RelErr:     res.RelErr,
		MeanRounds: sum.MeanRounds(),
		Events:     res.Events,
		Messages:   res.NetStats.MessagesSent,
		Bytes:      res.NetStats.BytesSent,
		AvgHops:    res.AvgHops,
		Validation: bwmodel.ValidateIndirect(p, obs),
	}, nil
}

// RenderScale formats the scale sweep: the headline wall-time/memory/
// throughput table, then one bwmodel-vs-telemetry validation table per
// decade of K.
func RenderScale(rows []*ScaleRow) string {
	t := metrics.NewTable("alg", "K", "pages", "rounds", "rel err", "events",
		"events/s", "msgs", "bytes", "wall", "peak RSS")
	for _, r := range rows {
		t.AddRow(r.Alg, r.K, r.Pages,
			fmt.Sprintf("%.1f", r.MeanRounds),
			fmt.Sprintf("%.2e", r.RelErr),
			r.Events,
			fmt.Sprintf("%.2e", r.EventsPerSec),
			r.Messages, r.Bytes,
			fmt.Sprintf("%.1fs", r.WallSeconds),
			fmt.Sprintf("%.0fMB", r.PeakRSSMB))
	}
	out := t.String()
	for _, r := range rows {
		out += fmt.Sprintf("\n%s K=%d: model vs telemetry\n%s",
			r.Alg, r.K, bwmodel.RenderValidation(r.Validation))
	}
	return out
}
