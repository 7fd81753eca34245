package search

import (
	"errors"
	"testing"

	"p2prank/internal/webgraph"
)

func newGraph(t testing.TB, pages int) *webgraph.Graph {
	t.Helper()
	cfg := webgraph.DefaultGenConfig(pages)
	cfg.Seed = 3
	g, err := webgraph.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newModel(t testing.TB, cfg Config) *TextModel {
	t.Helper()
	m, err := NewTextModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAppendTermsDeterministicAndSorted(t *testing.T) {
	g := newGraph(t, 1000)
	cfg := DefaultConfig()
	m1, m2 := newModel(t, cfg), newModel(t, cfg)
	for p := int32(0); p < 50; p++ {
		t1 := m1.AppendTerms(nil, g, p)
		// A second model, appending after an entry already in dst,
		// must draw the same terms.
		t2 := m2.AppendTerms([]int32{-1}, g, p)[1:]
		if len(t1) != cfg.TermsPerPage {
			t.Fatalf("page %d has %d terms", p, len(t1))
		}
		for i := range t1 {
			if t1[i] != t2[i] {
				t.Fatalf("page %d terms not deterministic", p)
			}
			if i > 0 && t1[i-1] >= t1[i] {
				t.Fatalf("page %d terms unsorted or duplicated: %v", p, t1)
			}
		}
	}
}

func TestTermPopularityskewed(t *testing.T) {
	g := newGraph(t, 3000)
	m := newModel(t, Config{Vocabulary: 500, TermsPerPage: 8})
	// Term 0 (Zipf rank 1) must appear on far more pages than a
	// mid-vocabulary term.
	var n0, nm int
	var terms []int32
	for p := 0; p < g.NumPages(); p++ {
		terms = m.AppendTerms(terms[:0], g, int32(p))
		for _, tm := range terms {
			switch tm {
			case 0:
				n0++
			case 250:
				nm++
			}
		}
	}
	if n0 <= nm*3 {
		t.Fatalf("no popularity skew: |term0|=%d |term250|=%d", n0, nm)
	}
}

func TestTextModelValidation(t *testing.T) {
	if _, err := NewTextModel(Config{Vocabulary: 100, TermsPerPage: 99999}); err == nil {
		t.Error("terms-per-page > vocabulary accepted")
	}
	if _, err := NewTextModel(Config{Vocabulary: -1}); err == nil {
		t.Error("negative vocabulary accepted")
	}
	if _, err := NewTextModel(Config{Skew: -1}); err == nil {
		t.Error("negative skew accepted")
	}
	m := newModel(t, Config{})
	if got := m.Config(); got != DefaultConfig() {
		t.Errorf("zero config filled to %+v, want %+v", got, DefaultConfig())
	}
}

func TestQueryValidation(t *testing.T) {
	const vocab = 500
	if err := (Request{K: 5}).Validate(vocab); err == nil {
		t.Error("empty query accepted")
	}
	if err := (Request{Terms: []int32{0}}).Validate(vocab); err == nil {
		t.Error("k=0 accepted")
	}
	if err := (Request{Terms: []int32{9999}, K: 5}).Validate(vocab); !errors.Is(err, ErrUnknownTerm) {
		t.Errorf("out-of-vocabulary term: err = %v, want ErrUnknownTerm", err)
	}
	if err := (Request{Terms: []int32{0, -1}, K: 5}).Validate(vocab); !errors.Is(err, ErrUnknownTerm) {
		t.Errorf("negative term: err = %v, want ErrUnknownTerm", err)
	}
	if err := (Request{Terms: []int32{0, vocab - 1}, K: 5}).Validate(vocab); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
}

func TestTermName(t *testing.T) {
	cases := []struct {
		t    int32
		want string
	}{
		{0, "term00000"},
		{7, "term00007"},
		{42, "term00042"},
		{999, "term00999"},
		{12345, "term12345"},
		{123456, "term123456"}, // beyond 5 digits: all digits kept, like %05d
	}
	for _, c := range cases {
		if got := TermName(c.t); got != c.want {
			t.Errorf("TermName(%d) = %q, want %q", c.t, got, c.want)
		}
	}
}
