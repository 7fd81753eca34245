package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"p2prank/internal/overlay"
	"p2prank/internal/partition"
	"p2prank/internal/search"
	"p2prank/internal/webgraph"
)

// DefaultCacheEntries bounds the (terms, version) response cache when
// Config.CacheEntries is zero.
const DefaultCacheEntries = 1024

// Config parameterizes the query front end.
type Config struct {
	// Text is the synthetic text model the shard indexes are built
	// from.
	Text search.Config
	// CacheEntries bounds the merged-response cache: 0 means
	// DefaultCacheEntries, negative disables caching.
	CacheEntries int
	// Health, when set, reports per-shard reachability: unreachable
	// shards are skipped (partial merge, coverage reported), slow
	// shards are hedged to the replica snapshot. Nil assumes every
	// shard healthy.
	Health Health
	// Admission bounds accepted load; the zero value admits everything.
	Admission Admission
}

// shardIndex is one shard's inverted index: the terms present on the
// shard's pages, CSR-packed posting lists of ascending local page
// indices, and the local→global page mapping. Scores are NOT stored
// here — they come from the Store's current snapshot at query time,
// which is what makes serving versioned.
type shardIndex struct {
	// pages maps local index → global page id (the group's Pages
	// order, which is also the order snapshot Scores are indexed in).
	pages []int32
	// terms present on this shard, ascending.
	terms []int32
	// off[i]:off[i+1] brackets terms[i]'s locals; len = len(terms)+1.
	off []int32
	// locals are ascending local page indices per term.
	locals []int32
}

// postingsOf returns the shard-local posting range of term t, or an
// empty slice if the shard has no pages containing t.
//
//p2plint:hotpath
func (sh *shardIndex) postingsOf(t int32) []int32 {
	lo, hi := 0, len(sh.terms)
	for lo < hi {
		mid := (lo + hi) / 2
		if sh.terms[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(sh.terms) || sh.terms[lo] != t {
		return nil
	}
	return sh.locals[sh.off[lo]:sh.off[lo+1]]
}

// Frontend is the distributed-top-k query tier: it knows which shards
// hold which terms, fans a query out to the shards that can match it,
// scores each shard's local intersection against that shard's current
// snapshot, and merges the partials with a bounded heap. Build it
// once; serve queries through per-goroutine Queriers.
type Frontend struct {
	text  search.Config
	ov    overlay.Network
	store *Store

	shards []shardIndex
	// termShards[t] lists the shards holding at least one page with
	// term t, ascending — the query planner's fan-out map.
	termShards [][]int32

	cache *queryCache

	health Health
	adm    Admission
	// overloadErr is the prebuilt shed error, so refusing a query under
	// overload allocates nothing either.
	overloadErr error

	inflight atomic.Int64
	shed     atomic.Int64
	hedged   atomic.Int64
	degraded atomic.Int64

	// routeMu serializes lazy overlay route lookups: queriers memoize
	// hop counts per (origin, shard) and only route on cold entries.
	routeMu sync.Mutex
}

// NewFrontend builds the shard indexes from the crawl, the page
// partition, and the text model. The store provides scores at query
// time; assign must cover the graph and match the store's shard count.
func NewFrontend(g webgraph.Store, ov overlay.Network, assign *partition.Assignment, store *Store, cfg Config) (*Frontend, error) {
	model, err := search.NewTextModel(cfg.Text)
	if err != nil {
		return nil, err
	}
	if assign == nil {
		return nil, fmt.Errorf("serve: frontend needs a page assignment")
	}
	if len(assign.GroupOf) != g.NumPages() {
		return nil, fmt.Errorf("serve: assignment covers %d pages, want %d", len(assign.GroupOf), g.NumPages())
	}
	if assign.K != store.NumShards() {
		return nil, fmt.Errorf("serve: assignment has %d shards, store %d", assign.K, store.NumShards())
	}
	text := model.Config()
	f := &Frontend{
		text:       text,
		ov:         ov,
		store:      store,
		shards:     make([]shardIndex, assign.K),
		termShards: make([][]int32, text.Vocabulary),
	}
	f.buildShards(g, model, assign)
	if cfg.CacheEntries >= 0 {
		n := cfg.CacheEntries
		if n == 0 {
			n = DefaultCacheEntries
		}
		f.cache = newQueryCache(n)
	}
	if err := cfg.Admission.validate(); err != nil {
		return nil, err
	}
	f.health = cfg.Health
	f.adm = cfg.Admission
	if f.adm.RetryAfterSeconds == 0 {
		f.adm.RetryAfterSeconds = 1
	}
	f.overloadErr = &search.OverloadError{RetryAfter: f.adm.RetryAfterSeconds}
	return f, nil
}

// buildShards draws every page's terms once and packs each shard's CSR
// by counting sort on term, O(pages·TermsPerPage + Vocabulary). Pages
// are bucketed by term in ascending page order; walking the terms in
// ascending order then emits each shard's postings sorted by (term,
// local), because partition.Assign numbers a shard's pages (LocalIdx)
// in ascending page order. Every page has exactly TermsPerPage terms,
// so each shard's postings are preallocated.
func (f *Frontend) buildShards(g webgraph.Store, model *search.TextModel, assign *partition.Assignment) {
	n, per, vocab := g.NumPages(), f.text.TermsPerPage, f.text.Vocabulary
	pageTerms := make([]int32, 0, n*per)
	for p := 0; p < n; p++ {
		pageTerms = model.AppendTerms(pageTerms, g, int32(p))
	}
	// start[t]:start[t+1] brackets term t's pages in byTerm.
	start := make([]int32, vocab+1)
	for _, t := range pageTerms {
		start[t+1]++
	}
	for t := 0; t < vocab; t++ {
		start[t+1] += start[t]
	}
	byTerm := make([]int32, len(pageTerms))
	next := append([]int32(nil), start[:vocab]...)
	for i, t := range pageTerms {
		byTerm[next[t]] = int32(i / per)
		next[t]++
	}
	for s := range f.shards {
		sh := &f.shards[s]
		sh.pages = assign.Pages[s]
		sh.locals = make([]int32, 0, len(sh.pages)*per)
	}
	// shardsOf[t] counts the shards holding term t; pairs sums them.
	shardsOf := make([]int32, vocab)
	pairs := 0
	for t := 0; t < vocab; t++ {
		for _, p := range byTerm[start[t]:start[t+1]] {
			sh := &f.shards[assign.GroupOf[p]]
			if k := len(sh.terms); k == 0 || sh.terms[k-1] != int32(t) {
				sh.terms = append(sh.terms, int32(t))
				sh.off = append(sh.off, int32(len(sh.locals)))
				shardsOf[t]++
				pairs++
			}
			sh.locals = append(sh.locals, assign.LocalIdx[p])
		}
	}
	// The planner's per-term lists share one backing array, filled in
	// ascending shard order below.
	backing := make([]int32, 0, pairs)
	for t, c := range shardsOf {
		f.termShards[t] = backing[len(backing) : len(backing) : len(backing)+int(c)]
		backing = backing[:len(backing)+int(c)]
	}
	for s := range f.shards {
		sh := &f.shards[s]
		sh.off = append(sh.off, int32(len(sh.locals)))
		for _, t := range sh.terms {
			f.termShards[t] = append(f.termShards[t], int32(s))
		}
	}
}

// Store returns the snapshot store queries score against.
func (f *Frontend) Store() *Store { return f.store }

// CacheStats returns cumulative cache hits and misses (zero when
// caching is disabled).
func (f *Frontend) CacheStats() (hits, misses int64) {
	if f.cache == nil {
		return 0, 0
	}
	return f.cache.stats()
}

// DegradeStats are the frontend's cumulative robustness counters.
type DegradeStats struct {
	// Shed is how many queries admission control refused.
	Shed int64
	// Hedged is how many shard reads fell back to the replica snapshot.
	Hedged int64
	// Degraded is how many queries were answered with partial coverage.
	Degraded int64
}

// DegradeStats returns the robustness counters.
func (f *Frontend) DegradeStats() DegradeStats {
	return DegradeStats{
		Shed:     f.shed.Load(),
		Hedged:   f.hedged.Load(),
		Degraded: f.degraded.Load(),
	}
}

// reachableStaleness is the admission controller's staleness signal:
// the worst rounds-behind over the shards the fan-out can still reach.
// Unreachable shards are excluded — their gap is lost coverage, not a
// reason to refuse the queries the healthy side can answer.
//
//p2plint:hotpath
func (f *Frontend) reachableStaleness() int64 {
	var max int64
	for i := range f.shards {
		if f.health != nil && f.health.ShardState(i) == ShardUnreachable {
			continue
		}
		if t := f.store.Staleness(i); t > max {
			max = t
		}
	}
	return max
}

// Querier is a per-goroutine handle on the Frontend: it owns the
// scratch buffers (candidate sets, intersection buffers, the merge
// heap, hop memos) that make the steady-state read path allocation
// free. A Querier must not be shared between goroutines; the Frontend
// and Store it reads are safe for any number of concurrent Queriers.
type Querier struct {
	f      *Frontend
	heap   topK
	cand   []int32
	candB  []int32
	inter  []int32
	interB []int32
	// hopRows memoizes overlay hop counts per query origin: one dense
	// per-shard row per distinct Request.From, -1 = not routed yet.
	hopRows map[int][]int32
}

// NewQuerier creates an independent query handle.
func (f *Frontend) NewQuerier() *Querier {
	return &Querier{f: f, hopRows: make(map[int][]int32)}
}

// Serve answers a search.Request: distributed conjunctive top-k over
// the current snapshots. The response's Version is the oldest snapshot
// version consulted, its Staleness the worst rounds-behind over the
// consulted shards, and its Cost the overlay lookup hops from
// req.From to each consulted shard plus one response message each.
// Results go into resp.Postings[:0]; with a warm Querier and a reused
// Response the steady-state path performs zero allocations.
//
// Degraded mode (Config.Health set): unreachable shards are skipped
// and the lost coverage reported in resp.Coverage/Degraded instead of
// failing the query; slow shards are hedged to the replica snapshot
// with the extra rounds-behind folded into resp.Staleness. Admission
// (Config.Admission) sheds with ErrOverloaded before any per-query
// work. Both paths stay allocation free.
//
//p2plint:hotpath
func (q *Querier) Serve(req search.Request, resp *search.Response) error {
	f := q.f
	resp.Postings = resp.Postings[:0]
	resp.Version = 0
	resp.Staleness = 0
	resp.Cost = search.Cost{}
	resp.Coverage = 1
	resp.Degraded = false
	resp.Hedged = 0
	if err := req.Validate(f.text.Vocabulary); err != nil {
		return err
	}
	if f.adm.enabled() {
		if f.adm.MaxInflight > 0 {
			if n := f.inflight.Add(1); n > f.adm.MaxInflight {
				f.inflight.Add(-1)
				f.shed.Add(1)
				return f.overloadErr
			}
			defer f.inflight.Add(-1)
		}
		if f.adm.StalenessBound > 0 && f.reachableStaleness() > f.adm.StalenessBound {
			f.shed.Add(1)
			return f.overloadErr
		}
	}
	storeV := f.store.Version()
	if req.MinVersion > storeV {
		return fmt.Errorf("%w: store at version %d, want >= %d", search.ErrStaleIndex, storeV, req.MinVersion)
	}
	if f.cache != nil && f.cache.get(req.Terms, req.K, req.From, req.MinVersion, storeV, resp) {
		return nil
	}

	cand := q.planShards(req.Terms)
	q.heap.reset(req.K)
	minVersion := int64(0)
	maxStale := int64(0)
	planned, missed := 0, 0
	for _, s := range cand {
		planned++
		state := ShardHealthy
		if f.health != nil {
			state = f.health.ShardState(int(s))
		}
		if state == ShardUnreachable {
			missed++
			continue
		}
		snap := f.store.Snapshot(int(s))
		if snap == nil {
			if f.health != nil {
				// Degraded mode treats a never-published shard like an
				// unreachable one: lost coverage, not a failed query.
				missed++
				continue
			}
			return fmt.Errorf("%w: shard %d has published no snapshot", search.ErrStaleIndex, s)
		}
		stale := f.store.Staleness(int(s))
		if state == ShardSlow {
			// The primary read would miss its deadline: hedge to the
			// replica snapshot. One publish older — the gap between the
			// two snapshots' rounds is real staleness and is accounted.
			if prev := f.store.Replica(int(s)); prev != nil {
				stale += snap.Round - prev.Round
				snap = prev
			}
			resp.Hedged++
		}
		if snap.Version < req.MinVersion {
			return fmt.Errorf("%w: shard %d at version %d, want >= %d", search.ErrStaleIndex, s, snap.Version, req.MinVersion)
		}
		if minVersion == 0 || snap.Version < minVersion {
			minVersion = snap.Version
		}
		if stale > maxStale {
			maxStale = stale
		}
		q.scanShard(s, snap, req.Terms)
		h, err := q.hops(req.From, s)
		if err != nil {
			return err
		}
		resp.Cost.LookupHops += h
		resp.Cost.Responses++
	}
	if missed > 0 {
		if missed == planned {
			// Nothing answered — there is no partial result to serve.
			return fmt.Errorf("%w: all %d planned shards unreachable or unpublished", search.ErrStaleIndex, planned)
		}
		resp.Coverage = float64(planned-missed) / float64(planned)
		resp.Degraded = true
		f.degraded.Add(1)
	}
	if resp.Hedged > 0 {
		f.hedged.Add(int64(resp.Hedged))
	}
	if minVersion == 0 {
		// No shard can match the conjunction: the answer is empty at
		// the store's current version.
		minVersion = storeV
	}
	resp.Version = minVersion
	resp.Staleness = maxStale
	resp.Postings = q.heap.drain(resp.Postings)
	if f.cache != nil && !resp.Degraded && resp.Hedged == 0 {
		// Degraded and hedged answers are never cached: the cache key is
		// (query, store version), and under faults the same version no
		// longer implies the same response.
		f.cache.put(req.Terms, req.K, req.From, storeV, resp)
	}
	return nil
}

// planShards intersects the per-term shard lists (smallest first) into
// the set of shards that hold at least one page with EVERY query term
// — only those can contribute to a conjunctive match.
//
//p2plint:hotpath
func (q *Querier) planShards(terms []int32) []int32 {
	f := q.f
	// Start from the rarest term's shard list.
	best := 0
	for i := 1; i < len(terms); i++ {
		if len(f.termShards[terms[i]]) < len(f.termShards[terms[best]]) {
			best = i
		}
	}
	cur := f.termShards[terms[best]]
	if len(terms) == 1 {
		return cur
	}
	// Double-buffered progressive intersection: cur always lives in
	// the buffer we are NOT about to write.
	a, b := q.cand, q.candB
	for i, t := range terms {
		if i == best {
			continue
		}
		a = intersect32(a[:0], cur, f.termShards[t])
		cur = a
		a, b = b, a
		if len(cur) == 0 {
			break
		}
	}
	q.cand, q.candB = a, b
	return cur
}

// intersect32 merges two ascending lists into dst (append semantics).
//
//p2plint:hotpath
func intersect32(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// scanShard intersects the query terms' posting lists within one shard
// and offers every surviving page, scored from the shard's snapshot,
// to the merge heap.
//
//p2plint:hotpath
func (q *Querier) scanShard(s int32, snap *ShardSnapshot, terms []int32) {
	sh := &q.f.shards[s]
	cur := sh.postingsOf(terms[0])
	for i := 1; i < len(terms) && len(cur) > 0; i++ {
		next := sh.postingsOf(terms[i])
		dst := q.inter[:0]
		dst = intersect32(dst, cur, next)
		q.inter, q.interB = q.interB, dst
		cur = dst
	}
	for _, local := range cur {
		q.heap.consider(search.Posting{Page: sh.pages[local], Score: snap.Scores[local]})
	}
}

// hops returns the memoized overlay hop count from the query origin to
// a shard, routing on first use.
//
//p2plint:hotpath
func (q *Querier) hops(from int, shard int32) (int, error) {
	row := q.hopRows[from]
	if row == nil {
		//p2plint:allow hotalloc -- one hop row per query origin, reused across all queries
		row = make([]int32, len(q.f.shards))
		for i := range row {
			row[i] = -1
		}
		q.hopRows[from] = row
	}
	if h := row[shard]; h >= 0 {
		return int(h), nil
	}
	q.f.routeMu.Lock()
	h, err := overlay.Hops(q.f.ov, from, q.f.ov.NodeID(int(shard)))
	q.f.routeMu.Unlock()
	if err != nil {
		return 0, err
	}
	row[shard] = int32(h)
	return h, nil
}
