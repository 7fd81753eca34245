package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/experiments"
	"p2prank/internal/partition"
	"p2prank/internal/search"
	"p2prank/internal/serve"
)

// serve_partition: experiments.DegradeBench at serveK shards with a
// 30% partition window and no stragglers. One storm is the bench's
// schedule over serveQueries queries: staleness ticks and republishes
// run between the reads on the query-index clock, and during the
// window the cut-off shards drop out of every fan-out while publishing
// stalls, so the admission bound sheds.
const (
	serveK        = 1000
	serveQueries  = 8000
	servePartFrac = 0.3
	// serveTiers tiers are built per run, one after the other, each on
	// its own crawl and query set: the cost of a storm differs by a tenth
	// or more from one crawl to the next, and a median over the storms
	// of three keeps one crawl from deciding the run. Each tier times at
	// least serveClosed closed-loop storms (the unit of work), with one
	// fixed-rate storm after every serveClosedPerFixed of them.
	serveTiers          = 3
	serveClosed         = 4
	serveClosedPerFixed = 4
	// serveRate is the fixed offered rate the latency figures are
	// taken at, about a quarter of one core's closed-loop throughput.
	serveRate = 4000
	// serveLimit is the p99 limit of query_max_qps. The 2-vCPU VM the
	// sizes were chosen on stalls for up to 30 ms now and then at any
	// offered rate (even 1000 q/s), so a 1 ms limit would measure the
	// VM rather than the tier; at 10 ms, with a rate failing only on two
	// misses in a row, the ladder stops at the knee.
	serveLimit = 10 * time.Millisecond
	// serveCheckEvery samples the queries the correctness storm
	// compares against the health-free frontend.
	serveCheckEvery = 7
	// degradeStalenessBound mirrors the admission bound DegradeBench
	// gives its own degraded frontend.
	degradeStalenessBound = 3
)

// serveLadder is the offered-rate ladder query_max_qps climbs: steps
// of at most 10% from 8000 q/s up, where the knee lies on this box.
var serveLadder = []float64{4000, 6000, 8000, 8800, 9700, 10600, 11700, 12800, 14100,
	15500, 17100, 18800, 20600, 22700, 25000}

// serveTier is one built serve_partition instance. The bench supplies
// the crawl, snapshot store, query set, schedule and outcome scoring;
// the degraded frontend that answers is built here with the bench's
// configuration, so its cache and degrade counters can be read.
type serveTier struct {
	b    *experiments.DegradeBench
	fe   *serve.Frontend
	q    *serve.Querier
	qi   int // the health clock: index of the query being served
	resp search.Response

	// Per-storm outcome of the query in flight, read by the after hook.
	err error

	publishes   int64
	publishBusy time.Duration
	answered    int64
	unexpected  int64
	shards      int64
	hops        int64
	maxStale    int64
}

func buildServeTier(c *runCtx, parent, run int64) (*serveTier, error) {
	// Crawl seeds 1..3 for --seed 1, 4..6 for --seed 2, and so on.
	w := experiments.ServeWorkload(serveK, (c.seed-1)*serveTiers+uint64(run)+1)
	var builds []busy
	if c.traced() {
		// NewDegradeBench generates and ranks the crawl inside; time
		// the same two calls on their own.
		var err error
		if builds, err = timeCrawlBuilds(c, run, w); err != nil {
			return nil, err
		}
	}
	t := &serveTier{}
	err := c.tr.do("serve/build", parent, run, func(id int64) error {
		for _, b := range builds {
			b.Parent = id
			c.tr.addBusy(b)
		}
		b, err := experiments.NewDegradeBench(w, serveK, serveQueries, servePartFrac, 0)
		if err != nil {
			return err
		}
		t.b = b
		g, err := w.Generate()
		if err != nil {
			return err
		}
		ov, err := engine.BuildOverlay(engine.Pastry, serveK)
		if err != nil {
			return err
		}
		assign, err := partition.Assign(g, ov, partition.ByPage, w.Seed)
		if err != nil {
			return err
		}
		text := search.DefaultConfig()
		if v := w.Pages / 40; v > text.Vocabulary {
			text.Vocabulary = v
		}
		fcfg := dprcore.FaultConfig{
			PartitionFrac: servePartFrac,
			PartitionFrom: float64(serveQueries / 4),
			PartitionTo:   float64(serveQueries / 2),
			Seed:          w.Seed,
		}
		at := 0
		for at < serveK && fcfg.PartitionMinority(at) {
			at++
		}
		health, err := serve.NewLatticeHealth(fcfg, at, func() float64 { return float64(t.qi) })
		if err != nil {
			return err
		}
		t.fe, err = serve.NewFrontend(g, ov, assign, b.Store(), serve.Config{
			Text:      text,
			Health:    health,
			Admission: serve.Admission{StalenessBound: degradeStalenessBound},
		})
		if err != nil {
			return err
		}
		t.q = t.fe.NewQuerier()
		return nil
	})
	return t, err
}

// serveQuery is one storm operation: advance the schedule to query i
// (a tick or republish may run first — the writes beside the reads)
// and serve it through the degraded frontend.
func (t *serveTier) serveQuery(c *runCtx, run int64, i int) bool {
	v0 := t.b.Store().Version()
	start := time.Now()
	t.qi = i
	if err := t.b.Advance(i); err != nil {
		t.err = err
		return false
	}
	if t.b.Store().Version() != v0 {
		d := time.Since(start)
		t.publishes++
		t.publishBusy += d
		if c.traced() {
			c.tr.add(span{ID: c.tr.newID(), Name: "serve/publish", Run: run,
				Start: c.tr.since(start), End: c.tr.since(start.Add(d))})
		}
	}
	req := t.b.Queries()[i]
	qStart := time.Now()
	t.err = t.q.Serve(req, &t.resp)
	if c.traced() {
		c.tr.add(span{ID: c.tr.newID(), Name: "serve/query", Run: int64(i),
			Start: c.tr.since(qStart), End: c.tr.since(time.Now())})
	}
	return t.err == nil
}

// record classifies the outcome of query i: sheds and window
// unavailability are expected misses, anything else is a failure.
func (t *serveTier) record(c *runCtx, i int) {
	c.attempted++
	req := t.b.Queries()[i]
	if err := t.b.Record(i, req, &t.resp, t.err); err != nil {
		t.unexpected++
		c.failed++
		return
	}
	if t.err != nil {
		return
	}
	t.answered++
	t.shards += int64(t.resp.Cost.Responses)
	t.hops += int64(t.resp.Cost.LookupHops)
	t.maxStale = max(t.maxStale, t.resp.Staleness)
}

// storm serves the query set once: closed loop (back to back) when
// interval is 0, else open loop at that interval.
func (t *serveTier) storm(c *runCtx, run int64, interval time.Duration) *loadStats {
	n := len(t.b.Queries())
	op := func(i int) bool { return t.serveQuery(c, run, i) }
	after := func(i int) { t.record(c, i) }
	if interval > 0 {
		return openLoop(newWallClock(), interval, n, nil, op, after)
	}
	for i := 0; i < n; i++ {
		op(i)
		after(i)
	}
	return nil
}

// checkStorm replays the schedule closed loop and compares a sample of
// the full-coverage answers with the same query on the bench's
// health-free frontend at the same store version.
func (t *serveTier) checkStorm(c *runCtx) {
	base := t.b.Frontend().NewQuerier()
	var want search.Response
	checked, mismatched := 0, 0
	for i := range t.b.Queries() {
		ok := t.serveQuery(c, -1, i)
		if ok && i%serveCheckEvery == 0 && !t.resp.Degraded && t.resp.Hedged == 0 {
			checked++
			if err := base.Serve(t.b.Queries()[i], &want); err != nil ||
				want.Version != t.resp.Version || !slices.Equal(want.Postings, t.resp.Postings) {
				mismatched++
			}
		}
		t.record(c, i)
	}
	c.check("full-coverage answers match the health-free frontend", checked > 0 && mismatched == 0,
		"%d sampled, %d differ", checked, mismatched)
}

// serveTotals sums the tiers' outcomes; each bench and frontend
// counts every storm it served.
type serveTotals struct {
	shed, unavailable, degraded, unexpected    int64
	answered, shards, hops, publishes          int64
	maxStale, hits, misses, dsShed, dsDegraded int64
	rankErrSum, coverageSum                    float64
	publishBusy                                time.Duration
	recovery                                   int64 // worst tier; -1 once one never recovered
}

func (s *serveTotals) add(t *serveTier) {
	row := t.b.Finish()
	s.shed += row.Shed
	s.unavailable += row.Unavailable
	s.degraded += row.Degraded
	s.rankErrSum += row.RankErr * float64(row.Degraded)
	s.coverageSum += row.MeanCoverage * float64(row.Degraded)
	if s.recovery >= 0 && (row.RecoveryQueries < 0 || row.RecoveryQueries > s.recovery) {
		s.recovery = row.RecoveryQueries
	}
	s.unexpected += t.unexpected
	s.answered += t.answered
	s.shards += t.shards
	s.hops += t.hops
	s.publishes += t.publishes
	s.publishBusy += t.publishBusy
	s.maxStale = max(s.maxStale, t.maxStale)
	h, m := t.fe.CacheStats()
	s.hits += h
	s.misses += m
	ds := t.fe.DegradeStats()
	s.dsShed += ds.Shed
	s.dsDegraded += ds.Degraded
}

func runServePartition(c *runCtx) error {
	interval := time.Duration(float64(time.Second) / serveRate)
	var fixed []*loadStats
	var tot serveTotals
	storms := 0
	maxQPS := 0.0
	for j := int64(0); j < serveTiers; j++ {
		var t *serveTier
		if err := c.timeSetup(j, func(id int64) error {
			var err error
			t, err = buildServeTier(c, id, j)
			return err
		}); err != nil {
			return err
		}
		// Closed-loop storms (the unit of work) alternate with
		// fixed-rate storms (the latency figures) for this tier's share
		// of the run's --seconds.
		began := time.Now()
		for rep := 0; rep < serveClosed || time.Since(began).Seconds() < c.seconds/serveTiers; rep++ {
			if err := c.timeWork(int64(storms), func(int64) error {
				t.storm(c, int64(storms), 0)
				return nil
			}); err != nil {
				return err
			}
			storms++
			if rep%serveClosedPerFixed == serveClosedPerFixed-1 {
				fixed = append(fixed, t.storm(c, int64(storms), interval))
				storms++
			}
		}
		if j == serveTiers-1 {
			maxQPS = climbLadder(c, t, &storms)
		}
		t.checkStorm(c)
		storms++
		tot.add(t)
	}

	var lat, late []float64
	for _, s := range fixed {
		lat = append(lat, s.Latency...)
		late = append(late, s.Lateness...)
	}
	sorted := sortedCopy(lat)
	p50, p99 := percentile(sorted, 50), percentile(sorted, 99)
	a99 := percentile(sortedCopy((&loadStats{Latency: lat}).answered()), 99)
	w99 := percentile(sortedCopy(late), 99)
	attempted := float64(serveQueries) * float64(storms)
	failFrac := float64(tot.shed+tot.unavailable+tot.unexpected) / attempted
	perDegraded := 1 / float64(max(tot.degraded, 1))
	at := fmt.Sprintf("at %d q/s", serveRate)
	c.figure("query_p50_us", p50.Value*1e6, "us", fmt.Sprintf("%s, n=%d, %d beyond", at, p50.N, p50.Beyond))
	c.figure("query_p99_us", p99.Value*1e6, "us", fmt.Sprintf("%s, n=%d, %d beyond; misses count as +Inf", at, p99.N, p99.Beyond))
	c.figure("query_p99_answered_us", a99.Value*1e6, "us", fmt.Sprintf("%s, n=%d, %d beyond", at, a99.N, a99.Beyond))
	c.figure("query_fail_frac", failFrac, "ratio", fmt.Sprintf("shed %d + unavailable %d + errors %d of %.0f", tot.shed, tot.unavailable, tot.unexpected, attempted))
	c.figure("query_max_qps", maxQPS, "q/s", fmt.Sprintf("answered p99 <= %v, no growing backlog", serveLimit))
	c.figure("query_rank_err", tot.rankErrSum*perDegraded, "ratio", fmt.Sprintf("recall loss of %d degraded answers", tot.degraded))
	c.figure("recovery_queries", float64(tot.recovery), "queries", fmt.Sprintf("heal to first full-coverage answer, worst of %d tiers", serveTiers))
	c.check("no unexpected serve errors", tot.unexpected == 0, "%d errors besides sheds and window unavailability", tot.unexpected)
	c.check("the partition window degrades and sheds", tot.degraded > 0 && tot.shed > 0,
		"degraded %d, shed %d", tot.degraded, tot.shed)

	c.setLayer("serve.shards_per_query", float64(tot.shards)/float64(max(tot.answered, 1)))
	c.setLayer("serve.hops_per_query", float64(tot.hops)/float64(max(tot.answered, 1)))
	c.setLayer("serve.cache_hit_ratio", float64(tot.hits)/float64(max(tot.hits+tot.misses, 1)))
	c.setLayer("serve.queue_wait_p99_us", w99.Value*1e6)
	// Counters below are per storm: finish divides them by the units of
	// work, so scale them to units per storm first.
	scale := float64(len(c.work)) / float64(storms)
	c.setLayer("serve.shed", float64(tot.dsShed)*scale)
	c.setLayer("serve.unavailable", float64(tot.unavailable)*scale)
	c.setLayer("serve.degraded", float64(tot.dsDegraded)*scale)
	c.setLayer("serve.mean_coverage", tot.coverageSum*perDegraded)
	c.setLayer("serve.publishes", float64(tot.publishes)*scale)
	c.setLayer("serve.publish_busy_s", tot.publishBusy.Seconds()*scale)
	c.setLayer("serve.max_staleness", float64(tot.maxStale))
	if math.IsNaN(p50.Value) {
		return fmt.Errorf("no latency samples")
	}
	return nil
}

// climbLadder finds the highest rate whose answered p99 stays within
// the limit with no growing backlog. Sheds here come from the staleness
// bound on the query-index clock, the same share at every rate, so the
// limit is judged on the answered queries. A rate fails only when two
// storms in a row miss: one long VM stall is enough to push a storm's
// p99 over the limit at any rate.
func climbLadder(c *runCtx, t *serveTier, storms *int) float64 {
	maxQPS := 0.0
	for _, rate := range serveLadder {
		for try := 0; ; try++ {
			s := t.storm(c, int64(*storms), time.Duration(float64(time.Second)/rate))
			*storms++
			if s.meets(serveLimit, true) {
				break
			}
			fmt.Fprintf(c.log, "ladder: %.0f q/s misses the limit: %s\n", rate, s.describe())
			if try == 1 {
				return maxQPS
			}
		}
		maxQPS = rate
	}
	return maxQPS
}
