package search_test

// The query contract declared in api.go, held to the serving tier that
// implements it. The fixture is the undistributed case: one shard
// indexing the whole crawl, so these tests pin what a Request means
// rather than how shards are merged (internal/serve tests that).

import (
	"errors"
	"slices"
	"testing"

	"p2prank/internal/nodeid"
	"p2prank/internal/pagerank"
	"p2prank/internal/partition"
	"p2prank/internal/pastry"
	"p2prank/internal/search"
	"p2prank/internal/serve"
	"p2prank/internal/webgraph"
)

type oneShard struct {
	g      *webgraph.Graph
	ranks  []float64
	assign *partition.Assignment
	model  *search.TextModel
	store  *serve.Store
	q      *serve.Querier
}

// newOneShard ranks a deterministic crawl, publishes its ranks once at
// round 1 and serves them from a single shard.
func newOneShard(t *testing.T, pages int) *oneShard {
	t.Helper()
	gc := webgraph.DefaultGenConfig(pages)
	gc.Seed = 3
	g, err := webgraph.Generate(gc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pagerank.Open(g, pagerank.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	ov, err := pastry.New([]nodeid.ID{nodeid.Hash("ranker-0")}, pastry.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	assign, err := partition.Assign(g, ov, partition.BySite, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := &oneShard{g: g, ranks: res.Ranks, assign: assign}
	if f.store, err = serve.NewStore(1); err != nil {
		t.Fatal(err)
	}
	f.publish(t, 1)
	text := search.Config{Vocabulary: 500, TermsPerPage: 8}
	if f.model, err = search.NewTextModel(text); err != nil {
		t.Fatal(err)
	}
	fe, err := serve.NewFrontend(g, ov, assign, f.store, serve.Config{Text: text, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	f.q = fe.NewQuerier()
	return f
}

// publish pushes the shard's ranks into the store at round.
func (f *oneShard) publish(t *testing.T, round int64) {
	t.Helper()
	local := make([]float64, len(f.assign.Pages[0]))
	for i, p := range f.assign.Pages[0] {
		local[i] = f.ranks[p]
	}
	if _, err := f.store.Publish(0, round, local); err != nil {
		t.Fatal(err)
	}
}

// matches lists every page whose terms include all of terms, in page
// order.
func (f *oneShard) matches(terms []int32) []int32 {
	var out, have []int32
	for p := int32(0); int(p) < f.g.NumPages(); p++ {
		have = f.model.AppendTerms(have[:0], f.g, p)
		all := true
		for _, tm := range terms {
			all = all && slices.Contains(have, tm)
		}
		if all {
			out = append(out, p)
		}
	}
	return out
}

// TestQueryMatchesBruteForce checks a Response against its definition,
// page by page: the top min(K, matches) pages containing every term,
// best first, ties broken by page, and no omitted match ranked above
// the last result.
func TestQueryMatchesBruteForce(t *testing.T) {
	f := newOneShard(t, 1500)
	var resp search.Response
	for _, terms := range [][]int32{{0}, {1, 2}, {0, 1, 2}, {5, 17}} {
		if err := f.q.Serve(search.Request{Terms: terms, K: 10}, &resp); err != nil {
			t.Fatal(err)
		}
		all := f.matches(terms)
		got := resp.Postings
		if len(got) != min(10, len(all)) {
			t.Fatalf("query %v: %d results, %d pages match", terms, len(got), len(all))
		}
		returned := map[int32]bool{}
		for i, ps := range got {
			if _, ok := slices.BinarySearch(all, ps.Page); !ok {
				t.Fatalf("query %v: page %d lacks a query term", terms, ps.Page)
			}
			if ps.Score != f.ranks[ps.Page] {
				t.Fatalf("query %v: page %d score %g, rank %g", terms, ps.Page, ps.Score, f.ranks[ps.Page])
			}
			if i > 0 && !before(got[i-1], ps) {
				t.Fatalf("query %v: results %d, %d out of order: %+v, %+v", terms, i-1, i, got[i-1], ps)
			}
			returned[ps.Page] = true
		}
		for _, p := range all {
			miss := search.Posting{Page: p, Score: f.ranks[p]}
			if !returned[p] && before(miss, got[len(got)-1]) {
				t.Fatalf("query %v: omitted %+v ranks above the last result %+v", terms, miss, got[len(got)-1])
			}
		}
	}
}

// before reports whether a ranks ahead of b: higher score, then lower
// page.
func before(a, b search.Posting) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Page < b.Page
}

func TestQueryEmptyIntersection(t *testing.T) {
	f := newOneShard(t, 500)
	// A long conjunction of rare terms that no page of this crawl holds
	// is an empty answer, not an error.
	terms := []int32{480, 481, 482, 483, 484}
	if n := len(f.matches(terms)); n != 0 {
		t.Fatalf("fixture drifted: %d pages hold all of %v", n, terms)
	}
	resp := search.Response{Postings: make([]search.Posting, 3)}
	if err := f.q.Serve(search.Request{Terms: terms, K: 5}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Postings) != 0 || resp.Degraded {
		t.Fatalf("empty conjunction: %d results, degraded %v", len(resp.Postings), resp.Degraded)
	}
}

// TestServeVersionContract pins Version, Staleness and MinVersion: a
// Response names the snapshot it was served from, MinVersion beyond it
// fails with ErrStaleIndex, and a publish makes the newer demand
// satisfiable.
func TestServeVersionContract(t *testing.T) {
	f := newOneShard(t, 300)
	var resp search.Response
	req := search.Request{Terms: []int32{0}, K: 3}
	if err := f.q.Serve(req, &resp); err != nil {
		t.Fatal(err)
	}
	v := f.store.Version()
	if resp.Version != v || resp.Staleness != 0 {
		t.Fatalf("served version %d staleness %d, published version %d", resp.Version, resp.Staleness, v)
	}
	if resp.Cost.Responses != 1 || resp.Cost.LookupHops < 0 {
		t.Fatalf("single-shard cost = %+v", resp.Cost)
	}
	req.MinVersion = v + 1
	if err := f.q.Serve(req, &resp); !errors.Is(err, search.ErrStaleIndex) {
		t.Fatalf("MinVersion beyond the published version: err = %v, want ErrStaleIndex", err)
	}
	req.MinVersion = v
	if err := f.q.Serve(req, &resp); err != nil {
		t.Fatalf("MinVersion == published version rejected: %v", err)
	}
	f.publish(t, 2)
	req.MinVersion = v + 1
	if err := f.q.Serve(req, &resp); err != nil {
		t.Fatalf("MinVersion %d rejected after a publish: %v", v+1, err)
	}
	if resp.Version <= v {
		t.Fatalf("version %d did not advance past %d after a publish", resp.Version, v)
	}
}
