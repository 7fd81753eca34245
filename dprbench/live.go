package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"p2prank/internal/codec"
	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/experiments"
	"p2prank/internal/netpeer"
	"p2prank/internal/partition"
	"p2prank/internal/search"
	"p2prank/internal/serve"
	"p2prank/internal/xrand"
)

// live_tcp: netpeer.StartCluster with liveK TCP peers on loopback
// ranking a livePages crawl (DPR1, indirect transmission, the Delta
// codec), a publisher copying the peers' ranks into a serve.Store every
// livePublish the way dprnode -serve does, and one open-loop HTTP
// client querying serve.Handler at liveRate over a single connection
// until the cluster's relative error reaches liveTarget.
const (
	livePages    = 200_000
	liveK        = 4
	liveMeanWait = 5 * time.Millisecond
	liveTarget   = 1e-6
	liveRate     = 10 // queries per second
	livePublish  = 250 * time.Millisecond
	// livePoll is how often the error is measured; each poll assembles
	// every peer's ranks, so polling faster would steal the peers' CPU.
	livePoll    = 25 * time.Millisecond
	liveTimeout = 90 * time.Second
	liveReps    = 8
	liveQueries = 256 // distinct queries, cycled
)

// liveText is the query tier's text model: the default with a fifth of
// its vocabulary and a third of its terms per page, because the term
// index is built in every set-up and each query scans its postings
// while the peers rank on the same two cores.
var liveText = search.Config{Vocabulary: 1000, TermsPerPage: 4, Skew: 1.0}

// liveRep is what one cluster run measured.
type liveRep struct {
	toTarget float64
	relErr   float64
	loops    float64 // mean loops per peer at target
	load     *loadStats

	cacheHits, cacheMisses int64
	shards, hops           int64 // summed over answered queries
	maxStale               int64
}

func runLiveTCP(c *runCtx) error {
	var reps []*liveRep
	began := time.Now()
	for rep := 0; c.more(rep, liveReps, began); rep++ {
		r, err := liveOnce(c, int64(rep))
		if err != nil {
			return err
		}
		reps = append(reps, r)
	}
	var loops, relErr, lat, late []float64
	var misses int
	var hits, cacheMisses, shards, hops, maxStale int64
	for _, r := range reps {
		loops = append(loops, r.loops)
		relErr = append(relErr, r.relErr)
		lat = append(lat, r.load.Latency...)
		late = append(late, r.load.Lateness...)
		misses += r.load.Misses
		hits += r.cacheHits
		cacheMisses += r.cacheMisses
		shards += r.shards
		hops += r.hops
		maxStale = max(maxStale, r.maxStale)
	}
	answered := float64(max(len(lat)-misses, 1))
	c.setLayer("serve.cache_hit_ratio", float64(hits)/float64(max(hits+cacheMisses, 1)))
	c.setLayer("serve.shards_per_query", float64(shards)/answered)
	c.setLayer("serve.hops_per_query", float64(hops)/answered)
	c.setLayer("serve.max_staleness", float64(maxStale))
	n := fmt.Sprintf("median of %d", len(reps))
	sorted := sortedCopy(lat)
	p50, p99 := percentile(sorted, 50), percentile(sorted, 99)
	at := fmt.Sprintf("at %d q/s over HTTP", liveRate)
	c.figure("time_to_target_s", median(c.work), "s", n+", cluster start to rel err <= 1e-6")
	c.figure("rounds", median(loops), "loops", n+", mean loops per peer at target")
	c.figure("rel_err", median(relErr), "ratio", n+", at the poll that met the target")
	c.figure("query_p50_us", p50.Value*1e6, "us", fmt.Sprintf("%s, n=%d, %d beyond", at, p50.N, p50.Beyond))
	c.figure("query_p99_us", p99.Value*1e6, "us", fmt.Sprintf("%s, n=%d, %d beyond; misses count as +Inf", at, p99.N, p99.Beyond))
	c.figure("query_fail_frac", float64(misses)/float64(max(len(lat), 1)), "ratio", fmt.Sprintf("%d of %d", misses, len(lat)))
	c.setLayer("serve.queue_wait_p99_us", percentile(sortedCopy(late), 99).Value*1e6)
	return nil
}

// liveOnce starts a cluster (set-up), serves it while it ranks to the
// target (work), and shuts it down.
func liveOnce(c *runCtx, rep int64) (*liveRep, error) {
	// Crawl seeds 1..8 for --seed 1, 9..16 for --seed 2, and so on:
	// like converge, time to target varies from crawl to crawl.
	w := experiments.Workload{Pages: livePages, Sites: 100,
		Seed: (c.seed-1)*liveReps + uint64(rep%liveReps) + 1}
	l := &liveCluster{c: c, rep: rep, probe: newCodecProbe(codec.Delta{}, c.traced())}
	defer l.close()
	if err := c.timeSetup(rep, l.start(w)); err != nil {
		return nil, err
	}
	out := &liveRep{}
	err := c.timeWork(rep, func(id int64) error {
		return c.tr.do("netpeer/cluster", id, rep, func(clusterID int64) error {
			var err error
			out.load, out.toTarget, err = l.serveUntilTarget(clusterID)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	out.relErr = l.reachedErr
	var loops, sent, relayed int64
	for i := 0; i < liveK; i++ {
		p := l.cl.Peer(i)
		loops += p.Loops()
		sent += p.ChunksSent()
		relayed += p.ChunksRelayed()
	}
	out.loops = float64(loops) / liveK
	l.stopAll()
	if l.phases != nil {
		l.phases.flush(c)
	}
	l.probe.flush(c, l.workID)
	c.addLayer("netpeer.loops", float64(loops))
	c.addLayer("netpeer.chunks_sent", float64(sent))
	c.addLayer("netpeer.chunks_relayed", float64(relayed))
	c.addLayer("serve.publishes", float64(l.publishes))
	c.addLayer("serve.publish_busy_s", l.publishBusy.Seconds())
	c.addLayer("serve.http_errors", float64(l.httpErrors))
	out.cacheHits, out.cacheMisses = l.fe.CacheStats()
	out.shards, out.hops = l.shards, l.hops
	out.maxStale = l.tracker.MaxObservedStaleness()
	c.attempted += int64(out.load.Attempted())
	c.failed += int64(out.load.Misses)
	c.check(fmt.Sprintf("cluster %d reaches %.0e", rep, liveTarget), out.toTarget > 0,
		"rel err %.3g", out.relErr)
	c.check(fmt.Sprintf("cluster %d answers every query", rep), out.load.Misses == 0 && l.httpErrors == 0,
		"%d misses, %d HTTP errors of %d", out.load.Misses, l.httpErrors, out.load.Attempted())
	c.check(fmt.Sprintf("cluster %d serves non-decreasing versions", rep), l.versionDrops == 0,
		"%d answers older than the one before", l.versionDrops)
	return out, nil
}

// liveCluster is one running live_tcp instance.
type liveCluster struct {
	c      *runCtx
	rep    int64
	probe  *codecProbe
	phases *phaseProbe

	cl      *netpeer.Cluster
	fe      *serve.Frontend
	store   *serve.Store
	tracker *serve.Tracker
	srv     *http.Server
	addr    string
	client  *http.Client
	queries []string

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	workID      int64
	reachedErr  float64
	publishes   int64
	publishBusy time.Duration
	pubSpans    []span

	httpErrors   int64
	versionDrops int64
	lastVersion  int64
	shards, hops int64
}

// start returns the set-up step: generate the crawl, build the query
// tier over the partition the cluster will use, start the HTTP server,
// and start the cluster (which computes its own reference first). The
// peers begin ranking as StartCluster returns.
func (l *liveCluster) start(w experiments.Workload) func(id int64) error {
	return func(id int64) error {
		c, rep := l.c, l.rep
		var builds []busy
		if c.traced() {
			var err error
			if builds, err = timeCrawlBuilds(c, rep, w); err != nil {
				return err
			}
		}
		g, err := w.Generate()
		if err != nil {
			return err
		}
		ov, err := engine.BuildOverlay(engine.Pastry, liveK)
		if err != nil {
			return err
		}
		assign, err := partition.Assign(g, ov, partition.BySite, w.Seed)
		if err != nil {
			return err
		}
		if l.store, err = serve.NewStore(liveK); err != nil {
			return err
		}
		err = c.tr.do("serve/build", id, rep, func(int64) error {
			l.fe, err = serve.NewFrontend(g, ov, assign, l.store, serve.Config{Text: liveText})
			return err
		})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		l.addr = ln.Addr().String()
		l.srv = &http.Server{Handler: serve.NewHandler(l.fe, 10, nil).Mux()}
		l.stop = make(chan struct{})
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			if err := l.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(c.log, "dprbench: http:", err)
			}
		}()
		l.client = &http.Client{
			Timeout:   5 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		}
		l.queries = liveQuerySet(c.seed, liveText.Vocabulary)

		params := dprcore.Params{Alg: dprcore.DPR1}
		if c.traced() {
			l.phases = newPhaseProbe(c.tr, 0, rep, liveK, dprcore.DPR1)
			params.Observer = l.phases
		}
		// The tracker turns the peers' compute hooks into the store's
		// staleness clock, as dprnode -serve installs it.
		l.tracker = serve.NewTracker(l.store, params.Observer)
		params.Observer = l.tracker
		return c.tr.do("netpeer/start", id, rep, func(startID int64) error {
			for _, b := range builds {
				if b.Layer == "pagerank" { // StartCluster computes R* inside
					b.Parent = startID
					c.tr.addBusy(b)
				}
			}
			l.cl, err = netpeer.StartCluster(g, netpeer.ClusterConfig{
				Params: params, K: liveK, MeanWait: liveMeanWait, Seed: w.Seed,
				Indirect: true, Codec: l.probe,
			})
			if err != nil {
				return err
			}
			same := len(l.cl.Assignment.GroupOf) == len(assign.GroupOf)
			for p := 0; same && p < len(assign.GroupOf); p++ {
				same = l.cl.Assignment.GroupOf[p] == assign.GroupOf[p]
			}
			c.check(fmt.Sprintf("cluster %d shards match the query tier's", rep), same, "%d pages", len(assign.GroupOf))
			return nil
		})
	}
}

// serveUntilTarget runs the publisher and the error poller beside the
// open-loop HTTP client until the poller sees the target, and returns
// the client's record and the time from cluster start to target.
func (l *liveCluster) serveUntilTarget(workID int64) (*loadStats, float64, error) {
	l.workID = workID
	if l.phases != nil {
		l.phases.parent.Store(workID)
	}
	begin := time.Now()
	l.publish() // the first snapshot, so no query meets an empty store
	done := make(chan struct{})
	var reached time.Duration
	l.wg.Add(2)
	go func() { // publisher
		defer l.wg.Done()
		tick := time.NewTicker(livePublish)
		defer tick.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-done:
				return
			case <-tick.C:
				l.publish()
			}
		}
	}()
	go func() { // error poller
		defer l.wg.Done()
		tick := time.NewTicker(livePoll)
		defer tick.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-tick.C:
			}
			if re := l.cl.RelErr(); re <= liveTarget {
				reached = time.Since(begin)
				l.reachedErr = re
				close(done)
				return
			}
			if time.Since(begin) > liveTimeout {
				close(done)
				return
			}
		}
	}()
	stopped := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	n := int(liveTimeout.Seconds()*liveRate) + 1
	load := openLoop(newWallClock(), time.Second/liveRate, n, stopped, func(i int) bool {
		return l.query(workID, i)
	}, nil)
	<-done
	return load, reached.Seconds(), nil
}

// publish copies every peer's current ranks into the store.
func (l *liveCluster) publish() {
	start := time.Now()
	for s := 0; s < liveK; s++ {
		p := l.cl.Peer(s)
		if p == nil || !p.Alive() {
			continue
		}
		if _, err := l.store.Publish(s, p.Loops(), p.Ranks()); err != nil {
			fmt.Fprintln(l.c.log, "dprbench: publish:", err)
		}
	}
	d := time.Since(start)
	l.publishes++
	l.publishBusy += d
	if l.c.traced() {
		l.pubSpans = append(l.pubSpans, span{ID: l.c.tr.newID(), Parent: l.workID, Name: "serve/publish",
			Run: l.rep, Start: l.c.tr.since(start), End: l.c.tr.since(start.Add(d))})
	}
}

// liveAnswer is the part of a /search response the client checks.
type liveAnswer struct {
	Version int64 `json:"version"`
	Cost    struct {
		LookupHops int `json:"LookupHops"`
		Responses  int `json:"Responses"`
	} `json:"cost"`
	Postings []struct {
		Page  int32   `json:"page"`
		Score float64 `json:"score"`
	} `json:"postings"`
}

// query sends query i over the client's one connection and checks the
// answer: status 200, a decodable body, scores best first, and a
// version no older than the previous answer's.
func (l *liveCluster) query(workID int64, i int) bool {
	start := time.Now()
	ok := l.get(l.queries[i%len(l.queries)])
	if l.c.traced() {
		l.c.tr.add(span{ID: l.c.tr.newID(), Parent: workID, Name: "http/query", Run: int64(i),
			Start: l.c.tr.since(start), End: l.c.tr.since(time.Now())})
	}
	if !ok {
		l.httpErrors++
	}
	return ok
}

func (l *liveCluster) get(rawQuery string) bool {
	resp, err := l.client.Get("http://" + l.addr + "/search?" + rawQuery)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	var a liveAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return false
	}
	for j := 1; j < len(a.Postings); j++ {
		if a.Postings[j].Score > a.Postings[j-1].Score {
			return false
		}
	}
	if a.Version < l.lastVersion {
		l.versionDrops++
	}
	l.lastVersion = a.Version
	l.shards += int64(a.Cost.Responses)
	l.hops += int64(a.Cost.LookupHops)
	return true
}

// stopAll stops the publisher, the poller and the HTTP server, and
// waits for them; the cluster itself stays up until close.
func (l *liveCluster) stopAll() {
	l.stopOnce.Do(func() {
		if l.stop != nil {
			close(l.stop)
		}
		if l.srv != nil {
			l.srv.Close()
		}
		l.wg.Wait()
		if l.client != nil {
			l.client.CloseIdleConnections()
		}
		l.c.tr.add(l.pubSpans...)
	})
}

func (l *liveCluster) close() {
	l.stopAll()
	if l.cl != nil {
		l.cl.Close()
	}
}

// liveQuerySet draws the client's queries: 1–3 distinct terms each,
// popularity skewed quartically toward low term ids (the serving
// benchmark's skew), as ready-made /search query strings.
func liveQuerySet(seed uint64, vocab int) []string {
	rng := xrand.New(seed ^ 0x11fe)
	out := make([]string, liveQueries)
	for i := range out {
		n := 1 + rng.Intn(3)
		var terms []string
		seen := map[int]bool{}
		for len(terms) < n {
			f := rng.Float64()
			f *= f
			t := int(f * f * float64(vocab))
			if !seen[t] {
				seen[t] = true
				terms = append(terms, strconv.Itoa(t))
			}
		}
		out[i] = "terms=" + strings.Join(terms, ",") + "&k=10"
	}
	return out
}
