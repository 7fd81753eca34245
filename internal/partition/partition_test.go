package partition

import (
	"fmt"
	"testing"

	"p2prank/internal/nodeid"
	"p2prank/internal/pastry"
	"p2prank/internal/webgraph"
)

func makeOverlay(t testing.TB, k int) *pastry.Overlay {
	t.Helper()
	ids := make([]nodeid.ID, k)
	for i := range ids {
		ids[i] = nodeid.Hash(fmt.Sprintf("ranker-%d", i))
	}
	o, err := pastry.New(ids, pastry.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func makeGraph(t testing.TB, pages int) *webgraph.Graph {
	t.Helper()
	g, err := webgraph.Generate(webgraph.DefaultGenConfig(pages))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func checkAssignment(t *testing.T, g *webgraph.Graph, a *Assignment) {
	t.Helper()
	if len(a.GroupOf) != g.NumPages() || len(a.LocalIdx) != g.NumPages() {
		t.Fatal("assignment length mismatch")
	}
	counted := 0
	for grp, ps := range a.Pages {
		for li, p := range ps {
			if a.GroupOf[p] != int32(grp) {
				t.Fatalf("page %d in group %d's list but GroupOf says %d", p, grp, a.GroupOf[p])
			}
			if a.LocalIdx[p] != int32(li) {
				t.Fatalf("page %d local index %d, list position %d", p, a.LocalIdx[p], li)
			}
			counted++
		}
	}
	if counted != g.NumPages() {
		t.Fatalf("assignment covers %d of %d pages", counted, g.NumPages())
	}
}

func TestAssignBySiteKeepsSitesTogether(t *testing.T) {
	g := makeGraph(t, 5000)
	ov := makeOverlay(t, 16)
	a, err := Assign(g, ov, BySite, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkAssignment(t, g, a)
	// All pages of a site share its first page's group.
	first := map[int32]int{}
	for p := 0; p < g.NumPages(); p++ {
		s := g.SiteOf(int32(p))
		f, ok := first[s]
		if !ok {
			first[s] = p
			f = p
		}
		if a.GroupOf[p] != a.GroupOf[f] {
			t.Fatalf("site %d split across groups", s)
		}
	}
}

func TestAssignByPageCoversAll(t *testing.T) {
	g := makeGraph(t, 3000)
	ov := makeOverlay(t, 8)
	a, err := Assign(g, ov, ByPage, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkAssignment(t, g, a)
	// With 3000 pages over 8 rankers, every ranker should get some.
	for grp, ps := range a.Pages {
		if len(ps) == 0 {
			t.Fatalf("group %d empty under by-page hashing", grp)
		}
	}
}

func TestAssignRandomDeterministicInSeed(t *testing.T) {
	g := makeGraph(t, 2000)
	ov := makeOverlay(t, 8)
	a1, err := Assign(g, ov, Random, 42)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Assign(g, ov, Random, 42)
	if err != nil {
		t.Fatal(err)
	}
	for p := range a1.GroupOf {
		if a1.GroupOf[p] != a2.GroupOf[p] {
			t.Fatal("same seed, different random assignment")
		}
	}
	a3, err := Assign(g, ov, Random, 43)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for p := range a1.GroupOf {
		if a1.GroupOf[p] != a3.GroupOf[p] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds, identical assignment")
	}
	checkAssignment(t, g, a1)
}

func TestHashStrategiesIgnoreSeed(t *testing.T) {
	g := makeGraph(t, 1000)
	ov := makeOverlay(t, 8)
	for _, strat := range []Strategy{BySite, ByPage} {
		a1, err := Assign(g, ov, strat, 1)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := Assign(g, ov, strat, 999)
		if err != nil {
			t.Fatal(err)
		}
		for p := range a1.GroupOf {
			if a1.GroupOf[p] != a2.GroupOf[p] {
				t.Fatalf("%v: seed changed a hash assignment", strat)
			}
		}
	}
}

func TestUnknownStrategy(t *testing.T) {
	g := makeGraph(t, 100)
	ov := makeOverlay(t, 4)
	if _, err := Assign(g, ov, Strategy(99), 0); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestAssignSkipsDeadRankers(t *testing.T) {
	g := makeGraph(t, 2000)
	ov := makeOverlay(t, 10)
	if err := ov.Fail(3); err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{BySite, ByPage, Random} {
		a, err := Assign(g, ov, strat, 7)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		for p, grp := range a.GroupOf {
			if grp == 3 {
				t.Fatalf("%v: page %d assigned to dead ranker", strat, p)
			}
		}
	}
}

// The §4.1 claim: by-site partitioning cuts far fewer links than
// by-page or random, because ~90% of links are intra-site.
func TestBySiteCutsFewestLinks(t *testing.T) {
	g := makeGraph(t, 20000)
	ov := makeOverlay(t, 32)
	cuts := map[Strategy]float64{}
	for _, strat := range []Strategy{BySite, ByPage, Random} {
		a, err := Assign(g, ov, strat, 5)
		if err != nil {
			t.Fatal(err)
		}
		cuts[strat] = Cut(g, a).CutFrac()
	}
	if cuts[BySite] >= cuts[ByPage]/3 {
		t.Fatalf("by-site cut %.3f not well below by-page cut %.3f", cuts[BySite], cuts[ByPage])
	}
	if cuts[BySite] >= cuts[Random]/3 {
		t.Fatalf("by-site cut %.3f not well below random cut %.3f", cuts[BySite], cuts[Random])
	}
	// By-site cut is bounded by the inter-site link fraction (~10%).
	stats := webgraph.ComputeStats(g)
	interSite := 1 - stats.IntraSiteFrac()
	if cuts[BySite] > interSite+1e-9 {
		t.Fatalf("by-site cut %.3f exceeds inter-site fraction %.3f", cuts[BySite], interSite)
	}
}

func TestCutStatsAccounting(t *testing.T) {
	g := makeGraph(t, 5000)
	ov := makeOverlay(t, 8)
	a, err := Assign(g, ov, ByPage, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := Cut(g, a)
	if c.IntraGroupLinks+c.InterGroupLinks != g.NumInternalLinks() {
		t.Fatalf("cut stats count %d links, graph has %d",
			c.IntraGroupLinks+c.InterGroupLinks, g.NumInternalLinks())
	}
	if c.MaxPages < c.MinPages {
		t.Fatalf("MaxPages %d < MinPages %d", c.MaxPages, c.MinPages)
	}
	if c.CutFrac() < 0 || c.CutFrac() > 1 {
		t.Fatalf("cut frac %v", c.CutFrac())
	}
}

func TestStrategyString(t *testing.T) {
	if BySite.String() != "by-site" || ByPage.String() != "by-page" || Random.String() != "random" {
		t.Fatal("strategy names wrong")
	}
	if Strategy(42).String() == "" {
		t.Fatal("unknown strategy has empty name")
	}
}

func BenchmarkAssignBySite(b *testing.B) {
	g := makeGraph(b, 50000)
	ov := makeOverlay(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assign(g, ov, BySite, 0); err != nil {
			b.Fatal(err)
		}
	}
}
