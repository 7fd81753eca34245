// Package engine orchestrates a full distributed page-ranking
// experiment: it builds the overlay, partitions the crawl, wires K
// asynchronous rankers to a transport fabric over the simulated
// network, runs them against the centralized reference vector, and
// records the time series behind the paper's Figures 6–8.
package engine

import (
	"fmt"

	"p2prank/internal/chord"
	"p2prank/internal/dprcore"
	"p2prank/internal/nodeid"
	"p2prank/internal/overlay"
	"p2prank/internal/pagerank"
	"p2prank/internal/partition"
	"p2prank/internal/pastry"
	"p2prank/internal/ranker"
	"p2prank/internal/simnet"
	"p2prank/internal/telemetry"
	"p2prank/internal/transport"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
	"p2prank/internal/xrand"
)

// OverlayKind selects the structured overlay implementation.
type OverlayKind int

const (
	// Pastry is the overlay the paper runs on.
	Pastry OverlayKind = iota
	// Chord demonstrates overlay-independence of the ranking layer.
	Chord
)

// String returns the overlay name.
func (k OverlayKind) String() string {
	switch k {
	case Pastry:
		return "pastry"
	case Chord:
		return "chord"
	}
	return fmt.Sprintf("OverlayKind(%d)", int(k))
}

// Config describes one experiment. Zero values select the defaults
// noted per field; Graph, K, and MaxTime are required.
//
// The algorithm knobs (Alg, Alpha, InnerEpsilon, SendProb, T1/T2,
// Fault, Observer) live in the embedded dprcore.Params, the
// configuration surface shared with netpeer — see DESIGN.md §9.
// Engine-specific notes: T1/T2 are in virtual time units and default
// to 15/15 (the Figure 8 setting); drawn means are clamped to at
// least MinMeanWait to keep event counts finite. An Observer that is
// a *telemetry.SimCollector additionally gets the simulator as its
// clock, the overlay route lengths as its hop source, and its
// aggregate published in Result.Telemetry.
type Config struct {
	// Params are the shared DPR loop parameters (see dprcore.Params).
	dprcore.Params
	// Graph is the crawl to rank; a mapped graph must stay open for the
	// whole run.
	Graph webgraph.Store
	// K is the number of page rankers.
	K int
	// Strategy selects the page-partitioning strategy (default BySite).
	Strategy partition.Strategy
	// Transport selects direct or indirect transmission (default
	// Indirect, the paper's scalable scheme).
	Transport transport.Kind
	// Overlay selects Pastry or Chord (default Pastry).
	Overlay OverlayKind
	// Seed drives all randomness (default 1).
	Seed uint64
	// Net configures the simulated network (zero → DefaultNetConfig).
	Net simnet.NetConfig
	// Size configures wire sizes (zero → DefaultSizeModel).
	Size transport.SizeModel
	// Codec optionally encodes score chunks on the wire (see
	// internal/codec): message sizes then reflect the real encoding,
	// and lossy codecs genuinely perturb the exchanged scores. Nil
	// keeps the paper's analytic l-bytes-per-link accounting.
	Codec transport.ChunkCodec
	// Reference optionally supplies the centralized PageRank fixed
	// point R* (page-indexed, as returned by Reference). When nil the
	// run computes it itself; experiment suites that run several curves
	// over one graph compute it once and share it across runs.
	Reference vecmath.Vec
	// SampleEvery is the sampling interval for the time series
	// (default 5 time units).
	SampleEvery float64
	// MaxTime is the virtual-time horizon; the run always stops here.
	MaxTime float64
	// TargetRelErr stops the run early once the global relative error
	// against centralized PageRank drops to this threshold (0 = run to
	// MaxTime). Figure 8 uses 1e-4 (0.01%).
	TargetRelErr float64
	// Disruptions take rankers offline for windows of virtual time —
	// the paper's §4.2 asynchrony model taken to its extreme ("sleep
	// for some time, suspend itself as its wish, or even shutdown").
	// While down, a ranker's host drops all traffic and its loops
	// no-op; on recovery it resumes from its pre-outage state.
	Disruptions []Disruption
	// Churn schedules ranker crash/restart cycles — full node failure,
	// one step beyond Disruptions' suspend/resume: a crashed ranker
	// loses its in-memory state and its host drops traffic; at restart
	// it resumes cold (R0 = 0) or warm from its last checkpoint (see
	// Params.Checkpoint; the engine installs an in-memory sink when a
	// FromCheckpoint event needs one). Crash and restart are serial
	// virtual-time events, so a seeded churn schedule is part of the
	// deterministic run: same seed + schedule, byte-identical results
	// at any GOMAXPROCS.
	Churn []ChurnEvent
}

// Disruption is one ranker outage window.
type Disruption struct {
	// Ranker is the index of the ranker to take down.
	Ranker int
	// From and To bound the outage in virtual time (From < To).
	From, To float64
}

// ChurnEvent is one ranker crash/restart cycle.
type ChurnEvent struct {
	// Ranker is the index of the ranker to crash.
	Ranker int
	// CrashAt and RestartAt bound the outage in virtual time
	// (CrashAt < RestartAt <= MaxTime).
	CrashAt, RestartAt float64
	// FromCheckpoint restarts the ranker from its last checkpoint
	// instead of cold (R0 = 0).
	FromCheckpoint bool
}

// MinMeanWait is the lower clamp for a ranker's mean waiting time. A
// zero mean would schedule unboundedly many loops at one instant.
const MinMeanWait = 0.1

func (c *Config) validate() error {
	if c.Graph == nil {
		return fmt.Errorf("engine: Graph is required")
	}
	if c.K <= 0 {
		return fmt.Errorf("engine: K = %d, must be positive", c.K)
	}
	if c.MaxTime <= 0 {
		return fmt.Errorf("engine: MaxTime = %v, must be positive", c.MaxTime)
	}
	c.Params.Defaults(15, 15)
	if err := c.Params.Validate(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Net == (simnet.NetConfig{}) {
		c.Net = simnet.DefaultNetConfig()
	}
	if c.Size == (transport.SizeModel{}) {
		c.Size = transport.DefaultSizeModel()
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 5
	}
	if c.SampleEvery < 0 {
		return fmt.Errorf("engine: negative SampleEvery %v", c.SampleEvery)
	}
	if c.TargetRelErr < 0 {
		return fmt.Errorf("engine: negative TargetRelErr %v", c.TargetRelErr)
	}
	for i, d := range c.Disruptions {
		if d.Ranker < 0 || d.Ranker >= c.K {
			return fmt.Errorf("engine: disruption %d targets ranker %d of %d", i, d.Ranker, c.K)
		}
		if d.From < 0 || d.To <= d.From {
			return fmt.Errorf("engine: disruption %d window [%v, %v) invalid", i, d.From, d.To)
		}
		if d.To > c.MaxTime {
			return fmt.Errorf("engine: disruption %d ends at %v, beyond MaxTime %v", i, d.To, c.MaxTime)
		}
	}
	needLoad := false
	for i, ev := range c.Churn {
		if ev.Ranker < 0 || ev.Ranker >= c.K {
			return fmt.Errorf("engine: churn %d targets ranker %d of %d", i, ev.Ranker, c.K)
		}
		if ev.CrashAt < 0 || ev.RestartAt <= ev.CrashAt {
			return fmt.Errorf("engine: churn %d window [%v, %v) invalid", i, ev.CrashAt, ev.RestartAt)
		}
		if ev.RestartAt > c.MaxTime {
			return fmt.Errorf("engine: churn %d restarts at %v, beyond MaxTime %v", i, ev.RestartAt, c.MaxTime)
		}
		if ev.FromCheckpoint {
			needLoad = true
		}
	}
	if needLoad && c.Checkpoint.Every == 0 {
		c.Checkpoint.Every = 5
	}
	if needLoad && c.Checkpoint.Sink != nil {
		if _, ok := c.Checkpoint.Sink.(*dprcore.MemCheckpointer); !ok {
			return fmt.Errorf("engine: FromCheckpoint churn needs a *dprcore.MemCheckpointer sink (or nil for the default)")
		}
	}
	return nil
}

// Sample is one point of the experiment time series.
type Sample struct {
	// Time is the virtual time of the sample.
	Time float64
	// RelErr is ‖R − R*‖₁/‖R*‖₁ against centralized PageRank.
	RelErr float64
	// AvgRank is the mean page rank (the Figure 7 metric).
	AvgRank float64
	// MeanLoops is the mean main-loop count across rankers.
	MeanLoops float64
}

// Result is the outcome of one experiment run.
type Result struct {
	// Samples is the recorded time series, one entry per SampleEvery.
	Samples []Sample
	// Final is the assembled global rank vector at the end of the run.
	Final vecmath.Vec
	// Reference is the centralized PageRank fixed point R*.
	Reference vecmath.Vec
	// RelErr is the final relative error.
	RelErr float64
	// ConvergedAt is the virtual time TargetRelErr was reached, or -1.
	ConvergedAt float64
	// LoopsAtConvergence is the mean ranker loop count when the target
	// was reached (or at MaxTime when it was not) — the Figure 8
	// "number of iterations" metric.
	LoopsAtConvergence float64
	// FaultStats counts injected message faults (all zero when
	// Config.Fault is disabled).
	FaultStats FaultStats
	// ReliableStats counts the reliable-delivery layer's retries, acks,
	// and breaker trips (all zero when Config.Reliable is disabled).
	ReliableStats dprcore.ReliableStats
	// Recoveries is the number of checkpoint restores performed by
	// Config.Churn restarts (cold restarts don't count).
	Recoveries int64
	// NetStats are network-level counters for the whole run.
	NetStats simnet.Stats
	// TransportStats are transport-level counters for the whole run.
	TransportStats transport.Stats
	// AvgHops is the overlay's measured mean lookup hop count.
	AvgHops float64
	// AvgNeighbors is the overlay's mean neighbor count (g in S_it=gN).
	AvgNeighbors float64
	// Cut describes the partition quality.
	Cut partition.CutStats
	// PagesPerRanker is each ranker's page-group size. Under by-site
	// partitioning with few sites, some rankers own nothing.
	PagesPerRanker []int
	// Telemetry is the in-sim collector's aggregate, filled when
	// Config.Observer is a *telemetry.SimCollector (nil otherwise).
	Telemetry *telemetry.Summary
	// Events is the number of simulator events the run executed —
	// paired with wall time it gives the scale experiments their
	// events/sec throughput metric.
	Events uint64
}

// FaultStats counts the faults a run's injector applied.
type FaultStats struct {
	// Dropped is the number of chunks discarded outright.
	Dropped int64
	// Delayed is the number of chunks held back and re-injected later.
	Delayed int64
	// Duplicated is the number of chunks sent twice.
	Duplicated int64
	// Partitioned is the number of chunks blackholed by an active
	// network partition.
	Partitioned int64
	// Straggled is the number of chunks straggler nodes held back.
	Straggled int64
}

// cluster is the assembled machinery of one run.
type cluster struct {
	cfg     Config
	sim     *simnet.Simulator
	net     *simnet.Network
	ov      overlay.Network
	fab     *transport.Fabric
	faults  *dprcore.FaultSender     // nil unless cfg.Fault.Enabled()
	rel     *dprcore.ReliableSender  // nil unless cfg.Reliable.Enabled()
	ckpt    *dprcore.MemCheckpointer // nil unless checkpoint restarts need loads
	assign  *partition.Assignment
	rankers []*ranker.Ranker
}

// BuildOverlay constructs the requested overlay over k ranker IDs
// (hashed from stable names, as a DHT would).
func BuildOverlay(kind OverlayKind, k int) (overlay.Network, error) {
	ids := make([]nodeid.ID, k)
	for i := range ids {
		ids[i] = nodeid.Hash(fmt.Sprintf("p2prank-ranker-%d", i))
	}
	switch kind {
	case Pastry:
		return pastry.New(ids, pastry.DefaultConfig())
	case Chord:
		return chord.New(ids, chord.DefaultConfig())
	}
	return nil, fmt.Errorf("engine: unknown overlay kind %d", int(kind))
}

func build(cfg Config) (*cluster, error) {
	sim := simnet.New(cfg.Seed)
	net, err := simnet.NewNetwork(sim, cfg.Net)
	if err != nil {
		return nil, err
	}
	ov, err := BuildOverlay(cfg.Overlay, cfg.K)
	if err != nil {
		return nil, err
	}
	fab, err := transport.NewFabric(net, ov, cfg.Transport, cfg.Size)
	if err != nil {
		return nil, err
	}
	if cfg.Codec != nil {
		if err := fab.SetCodec(cfg.Codec); err != nil {
			return nil, err
		}
	}
	assign, err := partition.Assign(cfg.Graph, ov, cfg.Strategy, cfg.Seed)
	if err != nil {
		return nil, err
	}
	groups, err := dprcore.BuildGroups(cfg.Graph, assign, cfg.Alpha)
	if err != nil {
		return nil, err
	}
	if cfg.Observer != nil {
		// Collectors that want timestamps or hop attribution get the
		// simulator's virtual clock and the overlay's route lengths; the
		// optional-interface probes keep telemetry a leaf package.
		if cs, ok := cfg.Observer.(telemetry.ClockSetter); ok {
			cs.SetClock(sim)
		}
		if hs, ok := cfg.Observer.(telemetry.HopsSetter); ok {
			hs.SetHops(overlayHops(ov, cfg.Transport, cfg.Seed))
		}
	}
	root := xrand.New(cfg.Seed ^ 0x9e3779b97f4a7c15)
	var sender dprcore.Sender = fab
	var faults *dprcore.FaultSender
	if cfg.Fault.Enabled() {
		// The fault-lattice seed defaults to the run seed so partition
		// and straggler membership re-cut with -seed like everything
		// else; an explicit Fault.Seed pins the cut independently.
		if cfg.Fault.Seed == 0 {
			cfg.Fault.Seed = cfg.Seed
		}
		// The fault stream is forked only when faults are on, so a
		// disabled config draws nothing and runs stay bit-identical.
		// The simulator is the Clock: delays land on virtual time.
		faults, err = dprcore.NewFaultSender(fab, sim, root.Fork(), cfg.Fault)
		if err != nil {
			return nil, err
		}
		faults.Observe(cfg.Observer)
		sender = faults
	}
	var rel *dprcore.ReliableSender
	if cfg.Reliable.Enabled() {
		// Reliability layers above the fault injector so retransmissions
		// are themselves subject to injected loss. Its jitter stream is
		// forked only when enabled — same bit-identity rule as faults.
		rel, err = dprcore.NewReliableSender(sender, sim, root.Fork(), cfg.Reliable)
		if err != nil {
			return nil, err
		}
		rel.Observe(cfg.Observer)
		sender = rel
	}
	var ckpt *dprcore.MemCheckpointer
	needLoad := false
	for _, ev := range cfg.Churn {
		if ev.FromCheckpoint {
			needLoad = true
		}
	}
	if needLoad {
		if cfg.Checkpoint.Sink == nil {
			cfg.Checkpoint.Sink = dprcore.NewMemCheckpointer()
		}
		ckpt = cfg.Checkpoint.Sink.(*dprcore.MemCheckpointer) // validate() pinned the type
	}
	rankers := make([]*ranker.Ranker, cfg.K)
	for i := 0; i < cfg.K; i++ {
		mean := cfg.T1 + root.Float64()*(cfg.T2-cfg.T1)
		if mean < MinMeanWait {
			mean = MinMeanWait
		}
		rk, err := ranker.New(groups[i], cfg.Params, mean, sim, sender, root.Fork())
		if err != nil {
			return nil, err
		}
		deliver := rk.Deliver
		if rel != nil {
			// Acked delivery: every chunk that reaches its owner is
			// acknowledged straight back to its source (end-to-end, one
			// hop). Wrapped only when reliability is on, so disabled
			// configs keep the exact pre-existing delivery path.
			i, rk := i, rk
			deliver = func(c transport.ScoreChunk) {
				rk.Deliver(c)
				fab.SendAck(i, c.SrcGroup, c.Round)
			}
			if err := fab.RegisterAck(i, func(src int32, round int64) {
				rel.Ack(i, src, round)
			}); err != nil {
				return nil, err
			}
		}
		if err := fab.Register(i, deliver); err != nil {
			return nil, err
		}
		rankers[i] = rk
	}
	return &cluster{
		cfg: cfg, sim: sim, net: net, ov: ov, fab: fab, faults: faults,
		rel: rel, ckpt: ckpt, assign: assign, rankers: rankers,
	}, nil
}

// overlayHops returns the chunk hop source for telemetry collectors:
// the overlay route length from the sender to the destination group's
// node under indirect transmission, 1 under direct (the payload takes
// one trip after the lookup). Routes are memoized — the overlay is
// static for the duration of a run. Past hopsExactMaxK rankers,
// per-pair routing (and its memo) would dominate the run, so chunks
// are attributed the overlay's sampled mean hop count instead.
func overlayHops(ov overlay.Network, kind transport.Kind, seed uint64) func(src, dst int) int {
	if kind != transport.Indirect {
		return func(src, dst int) int { return 1 }
	}
	const hopsExactMaxK = 4096
	if ov.NumNodes() > hopsExactMaxK {
		est := 0
		return func(src, dst int) int {
			if est == 0 {
				est = 1
				if h, err := overlay.AvgHops(ov, 200, xrand.New(seed^0x5bd1e995)); err == nil && h > 1 {
					est = int(h + 0.5)
				}
			}
			return est
		}
	}
	// The memo is capped: at paper scale the set of observed
	// (src, dst) pairs approaches K², which would quietly pin gigabytes
	// for a telemetry nicety. Past the cap, extra pairs recompute.
	const memoMax = 1 << 18
	memo := make(map[[2]int]int)
	return func(src, dst int) int {
		key := [2]int{src, dst}
		if h, ok := memo[key]; ok {
			return h
		}
		h := 1
		if path, err := overlay.Route(ov, src, ov.NodeID(dst)); err == nil && len(path) > 1 {
			h = len(path) - 1
		}
		if len(memo) < memoMax {
			memo[key] = h
		}
		return h
	}
}

// assemble copies every ranker's local ranks into a global vector.
func (cl *cluster) assemble(dst vecmath.Vec) {
	for _, rk := range cl.rankers {
		r := rk.Ranks()
		for li, p := range rk.Group().Pages {
			dst[p] = r[li]
		}
	}
}

func (cl *cluster) meanLoops() float64 {
	var sum int64
	for _, rk := range cl.rankers {
		sum += rk.Loops()
	}
	return float64(sum) / float64(len(cl.rankers))
}

// Run executes one experiment, ranking from R0 = 0.
func Run(cfg Config) (*Result, error) {
	return run(cfg, nil)
}

// run executes one experiment, optionally warm-starting every ranker
// from the global vector initial (page-indexed; nil means R0 = 0).
func run(cfg Config, initial vecmath.Vec) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if initial != nil && len(initial) != cfg.Graph.NumPages() {
		return nil, fmt.Errorf("engine: initial ranks have length %d, want %d",
			len(initial), cfg.Graph.NumPages())
	}
	ref := cfg.Reference
	if ref == nil {
		var err error
		ref, err = Reference(cfg.Graph, cfg.Alpha)
		if err != nil {
			return nil, err
		}
	} else if len(ref) != cfg.Graph.NumPages() {
		return nil, fmt.Errorf("engine: Reference has length %d, want %d",
			len(ref), cfg.Graph.NumPages())
	}
	cl, err := build(cfg)
	if err != nil {
		return nil, err
	}
	if initial != nil {
		for _, rk := range cl.rankers {
			local := vecmath.NewVec(rk.Group().N())
			for li, p := range rk.Group().Pages {
				local[li] = initial[p]
			}
			if err := rk.SetInitialRanks(local); err != nil {
				return nil, err
			}
		}
	}
	res := &Result{
		Reference:   ref,
		ConvergedAt: -1,
		Cut:         partition.Cut(cfg.Graph, cl.assign),
	}
	res.PagesPerRanker = make([]int, cfg.K)
	for i, ps := range cl.assign.Pages {
		res.PagesPerRanker[i] = len(ps)
	}
	hops, err := overlay.AvgHops(cl.ov, 500, xrand.New(cfg.Seed^0xabcdef))
	if err != nil {
		return nil, err
	}
	res.AvgHops = hops
	totalN := 0
	for i := 0; i < cl.ov.NumNodes(); i++ {
		totalN += len(cl.ov.Neighbors(i))
	}
	res.AvgNeighbors = float64(totalN) / float64(cl.ov.NumNodes())

	for _, rk := range cl.rankers {
		rk.Start()
	}
	for _, d := range cfg.Disruptions {
		d := d
		cl.sim.At(d.From, func() {
			cl.net.SetDown(cl.fab.Addr(d.Ranker), true)
			cl.rankers[d.Ranker].Suspend()
		})
		cl.sim.At(d.To, func() {
			cl.net.SetDown(cl.fab.Addr(d.Ranker), false)
			cl.rankers[d.Ranker].Resume()
		})
	}
	for _, ev := range cfg.Churn {
		ev := ev
		cl.sim.At(ev.CrashAt, func() {
			// Crash: host down (in-flight traffic toward it is lost),
			// loop state destroyed, and the reliable layer forgets the
			// crashed sender's pending chunks — the checkpoint, not the
			// wrapper, is the surviving record of what was in flight.
			cl.net.SetDown(cl.fab.Addr(ev.Ranker), true)
			cl.rankers[ev.Ranker].Crash()
			if cl.rel != nil {
				cl.rel.Forget(ev.Ranker)
			}
		})
		cl.sim.At(ev.RestartAt, func() {
			cl.net.SetDown(cl.fab.Addr(ev.Ranker), false)
			var snap []byte
			if ev.FromCheckpoint && cl.ckpt != nil {
				if data, _, ok := cl.ckpt.Load(ev.Ranker); ok {
					snap = data
					res.Recoveries++
				}
			}
			if err := cl.rankers[ev.Ranker].Restart(snap); err != nil {
				panic(fmt.Sprintf("engine: restart ranker %d: %v", ev.Ranker, err))
			}
			if cl.rel != nil {
				// Senders whose breaker gave the crashed ranker up resume
				// immediately on restart instead of waiting out the cooldown.
				cl.rel.ClearBreaker(ev.Ranker)
			}
		})
	}
	global := vecmath.NewVec(cfg.Graph.NumPages())
	stopAll := func() {
		for _, rk := range cl.rankers {
			rk.Stop()
		}
	}
	var sampleAt func(t float64)
	sampleAt = func(t float64) {
		cl.sim.At(t, func() {
			cl.assemble(global)
			s := Sample{
				Time:      t,
				RelErr:    vecmath.RelErr1(global, ref),
				AvgRank:   global.Mean(),
				MeanLoops: cl.meanLoops(),
			}
			res.Samples = append(res.Samples, s)
			converged := cfg.TargetRelErr > 0 && s.RelErr <= cfg.TargetRelErr && res.ConvergedAt < 0
			if cfg.Observer != nil {
				cfg.Observer.Milestone(telemetry.Milestone{
					Time: t, RelErr: s.RelErr, MeanLoops: s.MeanLoops, Converged: converged,
				})
			}
			if converged {
				res.ConvergedAt = t
				res.LoopsAtConvergence = s.MeanLoops
				stopAll()
				return
			}
			if t+cfg.SampleEvery <= cfg.MaxTime {
				sampleAt(t + cfg.SampleEvery)
			} else {
				stopAll()
			}
		})
	}
	if cfg.SampleEvery <= cfg.MaxTime {
		sampleAt(cfg.SampleEvery)
	} else {
		cl.sim.At(cfg.MaxTime, stopAll)
	}
	cl.sim.Run(0)

	cl.assemble(global)
	res.Final = global.Clone()
	res.RelErr = vecmath.RelErr1(res.Final, ref)
	if res.ConvergedAt < 0 {
		res.LoopsAtConvergence = cl.meanLoops()
	}
	res.NetStats = cl.net.TotalStats()
	res.TransportStats = cl.fab.Stats()
	res.Events = cl.sim.Processed()
	if cl.faults != nil {
		res.FaultStats = FaultStats{
			Dropped:     cl.faults.Dropped(),
			Delayed:     cl.faults.Delayed(),
			Duplicated:  cl.faults.Duplicated(),
			Partitioned: cl.faults.Partitioned(),
			Straggled:   cl.faults.Straggled(),
		}
	}
	if cl.rel != nil {
		res.ReliableStats = cl.rel.Stats()
	}
	if sc, ok := cfg.Observer.(*telemetry.SimCollector); ok {
		sum := sc.Summary()
		res.Telemetry = &sum
	}
	return res, nil
}

// Reference computes the centralized PageRank fixed point R* that every
// run measures against, at the engine's standard tolerance. Experiment
// suites call it once per graph and pass the result to each run via
// Config.Reference instead of re-deriving it per curve.
func Reference(g webgraph.Store, alpha float64) (vecmath.Vec, error) {
	ref, err := pagerank.Open(g, pagerank.Options{
		Alpha:   alpha,
		Epsilon: 1e-12,
		MaxIter: 100000,
	})
	if err != nil {
		return nil, fmt.Errorf("engine: centralized reference: %w", err)
	}
	return ref.Ranks, nil
}

// CPRIterations returns the number of centralized power-iteration steps
// (starting from R0 = 0, like the distributed algorithms) needed to
// bring the relative error against the fixed point below target. This
// is the CPR curve of Figure 8.
func CPRIterations(g webgraph.Store, alpha, target float64) (int, error) {
	star, err := Reference(g, alpha)
	if err != nil {
		return 0, err
	}
	return CPRIterationsFrom(g, alpha, target, star)
}

// CPRIterationsFrom is CPRIterations with the fixed point star already
// in hand (see Reference).
func CPRIterationsFrom(g webgraph.Store, alpha, target float64, star vecmath.Vec) (int, error) {
	if target <= 0 {
		return 0, fmt.Errorf("engine: target must be positive, got %v", target)
	}
	a, err := pagerank.BuildTransition(g, alpha)
	if err != nil {
		return 0, err
	}
	n := g.NumPages()
	r := vecmath.NewVec(n)
	next := vecmath.NewVec(n)
	betaE := vecmath.Const(n, 1-alpha) // βE with E = 1
	for it := 1; ; it++ {
		a.StepInto(next, r, betaE, nil)
		r, next = next, r
		if vecmath.RelErr1(r, star) <= target {
			return it, nil
		}
		if it > 100000 {
			return 0, fmt.Errorf("engine: CPR did not reach %v", target)
		}
	}
}
