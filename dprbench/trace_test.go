package main

import (
	"math"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimeSubtractsNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "engine/run", Start: 0, End: 10},
		// Two parallel compute phases overlapping on [3, 4]: the
		// parent loses their union [1, 6], not their sum.
		{ID: 2, Parent: 1, Name: "solve/compute", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "solve/compute", Start: 3, End: 6},
		// A grandchild is charged to its own parent only.
		{ID: 4, Parent: 2, Name: "pagerank/step", Start: 2, End: 3},
		// A child reaching past its parent is clipped to it.
		{ID: 5, Parent: 1, Name: "bench/tail", Start: 9, End: 12},
	}
	agg := []busy{{Parent: 1, Layer: "codec", Calls: 1000, Seconds: 1.5}}
	got := selfTimes(spans, agg)
	want := map[string]float64{
		// 10 − |[1,6] ∪ [9,10]| − 1.5 busy
		"engine":   10 - 6 - 1.5,
		"solve":    (3 - 1) + 3,
		"pagerank": 1,
		"codec":    1.5,
		"bench":    3,
	}
	for layer, w := range want {
		if !near(got[layer], w) {
			t.Errorf("self %s = %v, want %v", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers = %v, want %v", got, want)
	}
}

func TestSelfTimeFloorsAtZero(t *testing.T) {
	// Busy time reported under a span that did not wait for it (live
	// peers' codec calls run beside the cluster span) cannot make the
	// span's self time negative.
	spans := []span{{ID: 1, Name: "netpeer/cluster", Start: 0, End: 1}}
	got := selfTimes(spans, []busy{{Parent: 1, Layer: "codec", Calls: 1, Seconds: 3}})
	if got["netpeer"] != 0 || got["codec"] != 3 {
		t.Errorf("self = %v, want netpeer 0 and codec 3", got)
	}
}

func TestNilTracerCallsThrough(t *testing.T) {
	var tr *tracer
	called := false
	if err := tr.do("x/y", 0, 0, func(id int64) error {
		called = id == 0
		return nil
	}); err != nil || !called {
		t.Fatalf("nil tracer: called=%v err=%v", called, err)
	}
	tr.add(span{ID: 1})
	tr.addBusy(busy{Calls: 1})
}

func TestTracerRecordsParentLinks(t *testing.T) {
	tr := newTracer()
	var inner int64
	_ = tr.do("bench/work", 0, 7, func(outer int64) error {
		return tr.do("engine/run", outer, 7, func(id int64) error {
			inner = id
			return nil
		})
	})
	if len(tr.spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(tr.spans))
	}
	child, parent := tr.spans[0], tr.spans[1]
	if child.ID != inner || child.Parent != parent.ID || child.Run != 7 || parent.Parent != 0 {
		t.Errorf("parent links wrong: %+v %+v", child, parent)
	}
	if child.Start < parent.Start || child.End > parent.End {
		t.Errorf("child %+v not inside parent %+v", child, parent)
	}
}

func TestLayerTableOrdersBySelfTime(t *testing.T) {
	tab := layerTable(map[string]float64{"solve": 3, "engine": 1})
	if strings.Index(tab, "solve") > strings.Index(tab, "engine") || !strings.Contains(tab, "75.0%") {
		t.Errorf("table:\n%s", tab)
	}
}
