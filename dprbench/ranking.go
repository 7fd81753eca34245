package main

import (
	"fmt"
	"time"

	"p2prank/internal/codec"
	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/experiments"
	"p2prank/internal/overlay"
	"p2prank/internal/partition"
	"p2prank/internal/simnet"
	"p2prank/internal/transport"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
)

// converge: the paper's Figure 8 setting — DPR1, p = 1, T1 = T2 = 15,
// indirect transmission over Pastry, pages assigned by site, run until
// the relative error reaches 0.01% — on crawls of convergePages pages
// over 100 sites. Rounds to target vary from one crawl to the next
// (their coefficient of variation is about 15% over 12 crawls of this
// size), so one run ranks convergeCrawls crawls drawn from the seed and
// reports the median.
const (
	convergePages  = 100_000
	convergeSites  = 100
	convergeK      = 1000
	convergeCrawls = 16
	convergeTarget = 1e-4
)

// scale: experiments.ScaleRun's configuration (20 pages per ranker,
// pages hashed to rankers so every ranker talks to every other, DPR2,
// T1 = T2 = 3, fixed 0.1 latency with batched delivery, a 30-unit
// horizon) with the lossless Delta codec on the wire.
const (
	scaleK    = 1000
	scaleReps = 3
)

func runConverge(c *runCtx) error {
	var results []*engine.Result
	began := time.Now()
	for rep := 0; c.more(rep, convergeCrawls, began); rep++ {
		// Crawl seeds 1..16 for --seed 1, 17..32 for --seed 2, and so on.
		w := experiments.Workload{Pages: convergePages, Sites: convergeSites,
			Seed: (c.seed-1)*convergeCrawls + uint64(rep%convergeCrawls) + 1}
		res, err := rankOnce(c, int64(rep), w, func(g webgraph.Store, ref vecmath.Vec) engine.Config {
			return engine.Config{
				Params:       dprcore.Params{Alg: dprcore.DPR1, SendProb: 1, T1: 15, T2: 15},
				Graph:        g,
				K:            convergeK,
				Strategy:     partition.BySite,
				Transport:    transport.Indirect,
				Seed:         w.Seed,
				Reference:    ref,
				MaxTime:      2000,
				TargetRelErr: convergeTarget,
			}
		})
		if err != nil {
			return err
		}
		c.check(fmt.Sprintf("crawl %d reaches %.0e", w.Seed, convergeTarget), res.ConvergedAt >= 0,
			"rel err %.3g after %.2f rounds", res.RelErr, res.LoopsAtConvergence)
		mono, at := nonDecreasing(res.Samples)
		c.check(fmt.Sprintf("crawl %d average rank is monotone (Thm 4.1)", w.Seed), mono,
			"%d samples, first decrease at %d", len(res.Samples), at)
		results = append(results, res)
	}
	rankingFigures(c, results, "time_to_target_s", "to 1e-4")
	return nil
}

func runScale(c *runCtx) error {
	w := experiments.ScaleWorkload(scaleK, c.seed)
	var results []*engine.Result
	began := time.Now()
	for rep := 0; c.more(rep, scaleReps, began); rep++ {
		res, err := rankOnce(c, int64(rep), w, func(g webgraph.Store, ref vecmath.Vec) engine.Config {
			return engine.Config{
				Params:      dprcore.Params{Alg: dprcore.DPR2, T1: 3, T2: 3},
				Graph:       g,
				K:           scaleK,
				Seed:        w.Seed,
				Reference:   ref,
				SampleEvery: experiments.ScaleMaxTime,
				MaxTime:     experiments.ScaleMaxTime,
				Strategy:    partition.ByPage,
				Transport:   transport.Indirect,
				Net:         simnet.NetConfig{MinLatency: 0.1, MaxLatency: 0.1, BatchDelivery: true},
				Codec:       codec.Delta{},
			}
		})
		if err != nil {
			return err
		}
		if len(results) > 0 {
			// Same seed, same run: every counter repeats exactly.
			r0 := results[0]
			c.check(fmt.Sprintf("repeat %d matches repeat 0", rep),
				res.Events == r0.Events && res.NetStats == r0.NetStats && res.RelErr == r0.RelErr,
				"events %d/%d, bytes %d/%d", res.Events, r0.Events, res.NetStats.BytesSent, r0.NetStats.BytesSent)
		}
		c.check(fmt.Sprintf("repeat %d converges toward R*", rep), res.RelErr < 0.1,
			"rel err %.3g at the horizon", res.RelErr)
		results = append(results, res)
	}
	rankingFigures(c, results, "horizon_s", "wall time over the 30-unit horizon")
	return nil
}

// rankOnce sets up one crawl (generation plus the centralized
// reference, timed as set-up) and ranks it with the engine (timed as
// work). Traced runs additionally time the overlay, partition and group
// builds that engine.Run performs inside, as separate calls, and
// install the phase and codec probes.
func rankOnce(c *runCtx, rep int64, w experiments.Workload, config func(webgraph.Store, vecmath.Vec) engine.Config) (*engine.Result, error) {
	var g webgraph.Store
	var ref vecmath.Vec
	err := c.timeSetup(rep, func(id int64) error {
		var err error
		g, ref, err = buildCrawl(c, id, rep, w)
		return err
	})
	if err != nil {
		return nil, err
	}
	cfg := config(g, ref)
	var builds []busy
	if c.traced() {
		if builds, err = timeEngineBuilds(c, rep, cfg); err != nil {
			return nil, err
		}
	}
	var probe *codecProbe
	if cfg.Codec != nil {
		probe = newCodecProbe(cfg.Codec, c.traced())
		cfg.Codec = probe
	}
	var res *engine.Result
	err = c.timeWork(rep, func(id int64) error {
		return c.tr.do("engine/run", id, rep, func(runID int64) error {
			var phases *phaseProbe
			if c.traced() {
				phases = newPhaseProbe(c.tr, runID, rep, cfg.K, cfg.Alg)
				cfg.Observer = phases
			}
			var err error
			if res, err = engine.Run(cfg); err != nil {
				return err
			}
			if phases != nil {
				phases.flush(c)
			}
			if probe != nil {
				probe.flush(c, runID)
			}
			for _, b := range builds {
				b.Parent = runID
				c.tr.addBusy(b)
			}
			return nil
		})
	})
	if err != nil {
		return nil, fmt.Errorf("crawl %d: %w", w.Seed, err)
	}
	c.attempted++
	c.addLayer("partition.cut_frac", res.Cut.CutFrac())
	c.addLayer("simnet.events", float64(res.Events))
	c.addLayer("simnet.messages", float64(res.NetStats.MessagesSent))
	c.addLayer("simnet.dropped", float64(res.NetStats.MessagesDropped))
	ts := res.TransportStats
	c.addLayer("transport.data_msgs", float64(ts.DataMessages))
	c.addLayer("transport.data_bytes", float64(ts.DataBytes))
	c.addLayer("transport.relayed_chunks", float64(ts.RelayedChunks))
	c.addLayer("transport.lookup_msgs", float64(ts.LookupMessages))
	return res, nil
}

// buildCrawl generates the crawl and its centralized reference ranks.
func buildCrawl(c *runCtx, parent, run int64, w experiments.Workload) (webgraph.Store, vecmath.Vec, error) {
	var g webgraph.Store
	err := c.timeCall("webgraph.generate_s", "webgraph/generate", parent, run, func(int64) error {
		var err error
		g, err = w.Generate()
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	c.addLayer("webgraph.links", float64(g.NumInternalLinks()))
	var ref vecmath.Vec
	err = c.timeCall("pagerank.reference_s", "pagerank/reference", parent, run, func(int64) error {
		var err error
		ref, err = engine.Reference(g, 0.85)
		return err
	})
	return g, ref, err
}

// builder times calls a traced run repeats outside the program to see
// how long they take inside it: each adds to its per-layer metric and
// becomes a busy record for the layer, which the caller charges to the
// span that performs the same work internally. The repeats themselves
// run under a bench/builds span, as harness time.
type builder struct {
	c   *runCtx
	out []busy
}

func (b *builder) time(metric, layer string, fn func() error) error {
	start := time.Now()
	err := fn()
	d := time.Since(start).Seconds()
	b.c.addLayer(metric, d)
	b.out = append(b.out, busy{Layer: layer, Calls: 1, Seconds: d})
	return err
}

// timeCrawlBuilds repeats a crawl's generation and centralized ranking.
func timeCrawlBuilds(c *runCtx, run int64, w experiments.Workload) ([]busy, error) {
	b := &builder{c: c}
	err := c.tr.do("bench/builds", 0, run, func(int64) error {
		var g webgraph.Store
		err := b.time("webgraph.generate_s", "webgraph", func() (err error) {
			g, err = w.Generate()
			return err
		})
		if err != nil {
			return err
		}
		c.addLayer("webgraph.links", float64(g.NumInternalLinks()))
		return b.time("pagerank.reference_s", "pagerank", func() error {
			_, err := engine.Reference(g, 0.85)
			return err
		})
	})
	return b.out, err
}

// timeEngineBuilds repeats the three builds engine.Run performs
// before its event loop starts.
func timeEngineBuilds(c *runCtx, rep int64, cfg engine.Config) ([]busy, error) {
	b := &builder{c: c}
	err := c.tr.do("bench/builds", 0, rep, func(int64) error {
		var ov overlay.Network
		var assign *partition.Assignment
		err := b.time("pastry.build_s", "pastry", func() (err error) {
			ov, err = engine.BuildOverlay(engine.Pastry, cfg.K)
			return err
		})
		if err == nil {
			err = b.time("partition.assign_s", "partition", func() (err error) {
				assign, err = partition.Assign(cfg.Graph, ov, cfg.Strategy, cfg.Seed)
				return err
			})
		}
		if err == nil {
			err = b.time("dprcore.build_groups_s", "dprcore", func() error {
				_, err := dprcore.BuildGroups(cfg.Graph, assign, 0.85)
				return err
			})
		}
		return err
	})
	return b.out, err
}

// nonDecreasing checks DPR1's average-rank series (Theorem 4.1: from
// R0 = 0 it never falls), up to floating-point noise; it returns the
// first offending sample index, or -1.
func nonDecreasing(samples []engine.Sample) (bool, int) {
	for i := 1; i < len(samples); i++ {
		if samples[i].AvgRank < samples[i-1].AvgRank-1e-12 {
			return false, i
		}
	}
	return true, -1
}

// rankingFigures reports the ranking workloads' own end-to-end
// figures, each the median over the run's units of work.
func rankingFigures(c *runCtx, results []*engine.Result, timeName, timeNote string) {
	var rounds, bytes, relErr, rate []float64
	for i, r := range results {
		rounds = append(rounds, r.LoopsAtConvergence)
		bytes = append(bytes, float64(r.NetStats.BytesSent))
		relErr = append(relErr, r.RelErr)
		rate = append(rate, float64(r.Events)/c.work[i])
	}
	n := fmt.Sprintf("median of %d", len(results))
	c.figure(timeName, median(c.work), "s", n+", "+timeNote)
	c.figure("rounds", median(rounds), "loops", n+", mean loops per ranker")
	c.figure("wire_bytes", median(bytes), "B", n+", network bytes sent")
	c.figure("rel_err", median(relErr), "ratio", n+", against the centralized R*")
	c.figure("events_per_s", median(rate), "events/s", n+", simulator events per wall second")
}
