package serve_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"testing"

	"p2prank/internal/dprcore"
	"p2prank/internal/nodeid"
	"p2prank/internal/overlay"
	"p2prank/internal/pagerank"
	"p2prank/internal/partition"
	"p2prank/internal/pastry"
	"p2prank/internal/search"
	"p2prank/internal/serve"
	"p2prank/internal/telemetry"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
	"p2prank/internal/xrand"
)

type fixture struct {
	g      *webgraph.Graph
	ranks  vecmath.Vec
	ov     overlay.Network
	assign *partition.Assignment
	store  *serve.Store
	fe     *serve.Frontend
	text   search.Config
}

// newFixture ranks a deterministic crawl, shards it over k rankers,
// publishes every shard's rank slice as a version-1-per-shard
// snapshot, and builds the query frontend on top.
func newFixture(t testing.TB, pages, k, cacheEntries int) *fixture {
	t.Helper()
	cfg := webgraph.DefaultGenConfig(pages)
	cfg.Seed = 3
	g, err := webgraph.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pagerank.Open(g, pagerank.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]nodeid.ID, k)
	for i := range ids {
		ids[i] = nodeid.Hash(fmt.Sprintf("ranker-%d", i))
	}
	ov, err := pastry.New(ids, pastry.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	assign, err := partition.Assign(g, ov, partition.BySite, 1)
	if err != nil {
		t.Fatal(err)
	}
	store, err := serve.NewStore(k)
	if err != nil {
		t.Fatal(err)
	}
	publishAll(t, store, assign, res.Ranks, 1)
	text := search.DefaultConfig()
	text.Vocabulary = 500
	text.TermsPerPage = 8
	fe, err := serve.NewFrontend(g, ov, assign, store, serve.Config{Text: text, CacheEntries: cacheEntries})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{g: g, ranks: res.Ranks, ov: ov, assign: assign, store: store, fe: fe, text: text}
}

// publishAll pushes each shard's local slice of the global rank vector
// into the store at the given round.
func publishAll(t testing.TB, store *serve.Store, assign *partition.Assignment, ranks vecmath.Vec, round int64) {
	t.Helper()
	for s := 0; s < assign.K; s++ {
		local := make([]float64, len(assign.Pages[s]))
		for i, p := range assign.Pages[s] {
			local[i] = ranks[p]
		}
		if _, err := store.Publish(s, round, local); err != nil {
			t.Fatal(err)
		}
	}
}

// bruteForce is the top-k oracle: scan every page, keep those whose
// terms contain all of the query's, order by (score desc, page asc) and
// cut to k.
func bruteForce(t *testing.T, f *fixture, terms []int32, k int) []search.Posting {
	t.Helper()
	m, err := search.NewTextModel(f.text)
	if err != nil {
		t.Fatal(err)
	}
	var want []search.Posting
	var have []int32
	for p := 0; p < f.g.NumPages(); p++ {
		have = m.AppendTerms(have[:0], f.g, int32(p))
		all := true
		for _, tm := range terms {
			all = all && slices.Contains(have, tm)
		}
		if all {
			want = append(want, search.Posting{Page: int32(p), Score: f.ranks[p]})
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].Score != want[j].Score {
			return want[i].Score > want[j].Score
		}
		return want[i].Page < want[j].Page
	})
	return want[:min(k, len(want))]
}

// TestFrontendMatchesBruteForce is the distributed-top-k correctness
// anchor: with every shard publishing the same rank vector, the merged
// per-shard partials must equal a full scan of the crawl. k = 1500
// returns every match, which reaches the many pages that share the
// no-in-link rank, so the page-ascending tie-break is checked too.
func TestFrontendMatchesBruteForce(t *testing.T) {
	f := newFixture(t, 1500, 8, -1)
	q := f.fe.NewQuerier()
	var got search.Response
	queries := [][]int32{{0}, {1, 2}, {0, 1, 2}, {5, 17}, {480, 481, 482}, {3}}
	for _, k := range []int{10, 1500} {
		for _, terms := range queries {
			if err := q.Serve(search.Request{Terms: terms, K: k, From: 0}, &got); err != nil {
				t.Fatalf("query %v: %v", terms, err)
			}
			want := bruteForce(t, f, terms, k)
			if len(got.Postings) != len(want) {
				t.Fatalf("query %v k=%d: %d results, brute force %d", terms, k, len(got.Postings), len(want))
			}
			for i := range got.Postings {
				if got.Postings[i] != want[i] {
					t.Fatalf("query %v k=%d result %d: %+v, brute force %+v", terms, k, i, got.Postings[i], want[i])
				}
			}
		}
	}
}

// TestFrontendMatchesStaticIndex checks the distributed merge against
// the undistributed index: one shard holding every posting of the crawl
// and one published snapshot, so no merge runs at all. The two tiers
// must agree on random conjunctive queries at every k, the cut at k
// included.
func TestFrontendMatchesStaticIndex(t *testing.T) {
	f := newFixture(t, 1500, 8, -1)
	global := newFixture(t, 1500, 1, -1)
	q, gq := f.fe.NewQuerier(), global.fe.NewQuerier()
	rng := xrand.New(11)
	var got, want search.Response
	matched := 0
	for i := 0; i < 300; i++ {
		terms := make([]int32, 1+rng.Intn(3))
		for j := range terms {
			terms[j] = int32(rng.Intn(40))
		}
		req := search.Request{Terms: terms, K: []int{1, 10, 100}[i%3]}
		if err := q.Serve(req, &got); err != nil {
			t.Fatalf("query %v: %v", terms, err)
		}
		if err := gq.Serve(req, &want); err != nil {
			t.Fatalf("query %v on one shard: %v", terms, err)
		}
		if !slices.Equal(got.Postings, want.Postings) {
			t.Fatalf("query %v k=%d: 8 shards %v, one shard %v", terms, req.K, got.Postings, want.Postings)
		}
		if len(got.Postings) > 0 {
			matched++
		}
	}
	if matched < 100 {
		t.Fatalf("only %d of 300 queries matched a page", matched)
	}
}

// TestResponseReuseNoGrowth pins the Response contract: results are
// appended into Postings[:0], so a reused Response keeps its backing
// array once it has grown, whether the merge or the cache answers.
func TestResponseReuseNoGrowth(t *testing.T) {
	for _, cache := range []int{-1, 64} {
		f := newFixture(t, 500, 4, cache)
		q := f.fe.NewQuerier()
		var resp search.Response
		var first *search.Posting
		for _, terms := range [][]int32{{0}, {1}, {0}} {
			if err := q.Serve(search.Request{Terms: terms, K: 10}, &resp); err != nil {
				t.Fatal(err)
			}
			if len(resp.Postings) == 0 {
				t.Fatalf("query %v: no results", terms)
			}
			if first == nil {
				first = &resp.Postings[0]
			} else if &resp.Postings[0] != first {
				t.Fatalf("cache %d, query %v: reused Response reallocated Postings", cache, terms)
			}
		}
	}
}

func TestServeVersionAndStaleness(t *testing.T) {
	f := newFixture(t, 800, 8, -1)
	q := f.fe.NewQuerier()
	var resp search.Response
	req := search.Request{Terms: []int32{0}, K: 5}
	if err := q.Serve(req, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Version < 1 || resp.Version > int64(f.store.NumShards()) {
		t.Fatalf("initial version %d outside first publish wave", resp.Version)
	}
	if resp.Staleness != 0 {
		t.Fatalf("fresh snapshots served with staleness %d", resp.Staleness)
	}
	// Three committed-but-unpublished rounds on every shard: any
	// consulted shard now reports 3 rounds behind.
	for s := 0; s < f.store.NumShards(); s++ {
		for i := 0; i < 3; i++ {
			f.store.Advance(s)
		}
	}
	if err := q.Serve(req, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Staleness != 3 {
		t.Fatalf("staleness = %d after 3 unpublished rounds, want 3", resp.Staleness)
	}
	// Republishing resets staleness and advances every version.
	before := resp.Version
	publishAll(t, f.store, f.assign, f.ranks, 4)
	if err := q.Serve(req, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Staleness != 0 {
		t.Fatalf("staleness = %d after republish, want 0", resp.Staleness)
	}
	if resp.Version <= before {
		t.Fatalf("version %d did not advance past %d after republish", resp.Version, before)
	}
	// MinVersion beyond the store is a typed staleness error;
	// MinVersion at the served version succeeds.
	req.MinVersion = f.store.Version() + 1
	if err := q.Serve(req, &resp); !errors.Is(err, search.ErrStaleIndex) {
		t.Fatalf("future MinVersion: err = %v, want ErrStaleIndex", err)
	}
	req.MinVersion = resp.Version
	if err := q.Serve(req, &resp); err != nil {
		t.Fatalf("satisfiable MinVersion rejected: %v", err)
	}
}

func TestServeUnpublishedStoreIsStale(t *testing.T) {
	f := newFixture(t, 500, 4, -1)
	empty, err := serve.NewStore(4)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := serve.NewFrontend(f.g, f.ov, f.assign, empty, serve.Config{Text: f.text, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	var resp search.Response
	err = fe.NewQuerier().Serve(search.Request{Terms: []int32{0}, K: 3}, &resp)
	if !errors.Is(err, search.ErrStaleIndex) {
		t.Fatalf("query before any publish: err = %v, want ErrStaleIndex", err)
	}
}

func TestServeValidation(t *testing.T) {
	f := newFixture(t, 300, 4, -1)
	q := f.fe.NewQuerier()
	var resp search.Response
	if err := q.Serve(search.Request{K: 3}, &resp); err == nil {
		t.Error("empty query accepted")
	}
	if err := q.Serve(search.Request{Terms: []int32{0}}, &resp); err == nil {
		t.Error("k=0 accepted")
	}
	if err := q.Serve(search.Request{Terms: []int32{9999}, K: 3}, &resp); !errors.Is(err, search.ErrUnknownTerm) {
		t.Errorf("out-of-vocabulary term: err = %v, want ErrUnknownTerm", err)
	}
}

func TestCacheHitsAndInvalidation(t *testing.T) {
	f := newFixture(t, 800, 8, 64)
	q := f.fe.NewQuerier()
	var first, second search.Response
	req := search.Request{Terms: []int32{0, 1}, K: 10}
	if err := q.Serve(req, &first); err != nil {
		t.Fatal(err)
	}
	if err := q.Serve(req, &second); err != nil {
		t.Fatal(err)
	}
	hits, misses := f.fe.CacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("cache stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	if len(first.Postings) != len(second.Postings) {
		t.Fatalf("cached response differs: %d vs %d postings", len(first.Postings), len(second.Postings))
	}
	for i := range first.Postings {
		if first.Postings[i] != second.Postings[i] {
			t.Fatalf("cached posting %d: %+v vs %+v", i, first.Postings[i], second.Postings[i])
		}
	}
	if first.Version != second.Version || first.Staleness != second.Staleness || first.Cost != second.Cost {
		t.Fatal("cached response metadata differs from computed one")
	}
	// A publish mints a new store version, so the same query recomputes.
	publishAll(t, f.store, f.assign, f.ranks, 2)
	if err := q.Serve(req, &second); err != nil {
		t.Fatal(err)
	}
	if _, misses2 := f.fe.CacheStats(); misses2 != 2 {
		t.Fatalf("misses = %d after version bump, want 2 (cache must invalidate)", misses2)
	}
	if second.Version <= first.Version {
		t.Fatalf("post-publish version %d not newer than %d", second.Version, first.Version)
	}
}

func TestCacheDisabled(t *testing.T) {
	f := newFixture(t, 300, 4, -1)
	q := f.fe.NewQuerier()
	var resp search.Response
	req := search.Request{Terms: []int32{0}, K: 5}
	for i := 0; i < 3; i++ {
		if err := q.Serve(req, &resp); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := f.fe.CacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("disabled cache recorded %d hits / %d misses", hits, misses)
	}
}

// TestPublisherSeam drives the dprcore Checkpointer path: DPRS bytes
// in, published snapshot out, original bytes teed to the next sink.
func TestPublisherSeam(t *testing.T) {
	store, err := serve.NewStore(4)
	if err != nil {
		t.Fatal(err)
	}
	mem := dprcore.NewMemCheckpointer()
	pub := serve.NewPublisher(store, mem)
	scores := []float64{0.5, 0.25, 0.125}
	data := dprcore.EncodeRankSnapshot(nil, 2, 7, scores)
	if err := pub.Save(2, 7, data); err != nil {
		t.Fatal(err)
	}
	snap := store.Snapshot(2)
	if snap == nil || snap.Round != 7 || snap.Version != 1 {
		t.Fatalf("published snapshot = %+v", snap)
	}
	for i, v := range scores {
		if snap.Scores[i] != v {
			t.Fatalf("score[%d] = %v, want %v", i, snap.Scores[i], v)
		}
	}
	if _, round, ok := mem.Load(2); !ok || round != 7 {
		t.Fatalf("tee sink: ok=%v round=%d", ok, round)
	}
	// A snapshot belonging to a different group must be refused.
	if err := pub.Save(1, 7, data); err == nil {
		t.Fatal("group-mismatched snapshot accepted")
	}
	if err := pub.Save(3, 1, []byte("garbage")); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestTrackerStalenessAccounting(t *testing.T) {
	store, err := serve.NewStore(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Publish(0, 0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	tr := serve.NewTracker(store, nil)
	for round := int64(1); round <= 3; round++ {
		tr.ComputeEnd(0, round, telemetry.ComputeStats{})
	}
	if st := store.Staleness(0); st != 3 {
		t.Fatalf("staleness = %d after 3 rounds, want 3", st)
	}
	if tr.MaxObservedStaleness() != 3 {
		t.Fatalf("max observed = %d, want 3", tr.MaxObservedStaleness())
	}
	if _, err := store.Publish(0, 3, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if st := store.Staleness(0); st != 0 {
		t.Fatalf("staleness = %d after publish, want 0", st)
	}
	if tr.MaxObservedStaleness() != 3 {
		t.Fatal("max observed staleness must be monotone")
	}
	// Rankers beyond the serving tier are ignored, not a panic.
	tr.ComputeEnd(99, 1, telemetry.ComputeStats{})
}

func TestHTTPHandler(t *testing.T) {
	f := newFixture(t, 500, 4, 0)
	srv := httptest.NewServer(serve.NewHandler(f.fe, 5, nil).Mux())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/search?terms=0,1&k=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body struct {
		Version   int64 `json:"version"`
		Staleness int64 `json:"staleness"`
		Postings  []struct {
			Page  int32   `json:"page"`
			Score float64 `json:"score"`
		} `json:"postings"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Version < 1 {
		t.Fatalf("served version %d", body.Version)
	}
	if len(body.Postings) == 0 || len(body.Postings) > 3 {
		t.Fatalf("got %d postings for k=3", len(body.Postings))
	}

	if resp, err = http.Get(srv.URL + "/search?terms=abc"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed terms: status = %d, want 400", resp.StatusCode)
	}

	if resp, err = http.Get(srv.URL + "/search?terms=0&minv=999999"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unsatisfiable minv: status = %d, want 503", resp.StatusCode)
	}
}

func TestStoreValidation(t *testing.T) {
	if _, err := serve.NewStore(0); err == nil {
		t.Error("zero-shard store accepted")
	}
	store, err := serve.NewStore(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Publish(5, 1, nil); err == nil {
		t.Error("out-of-range publish accepted")
	}
	if v := store.Version(); v != 0 {
		t.Errorf("fresh store at version %d", v)
	}
}
