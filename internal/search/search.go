// Package search implements the application the paper's introduction
// motivates: a distributed search engine over the DHT, where page
// ranking "is not only needed as in its centralized counterpart for
// improving query results, but should be performed distributedly".
//
// It follows the P2P web-search architecture of the paper's reference
// [17] (Li et al., "On the Feasibility of Peer-to-Peer Web Indexing and
// Search"): the inverted index is partitioned by term — the overlay
// owner of hash(term) stores that term's posting list — while pages
// (and their ranks) live on the rankers chosen by the §4.1 page
// partition. Queries resolve each term to its owner, intersect posting
// lists, and order results by the distributed PageRank scores.
//
// Page text is synthesized: each page deterministically draws terms
// from a Zipf-skewed vocabulary, seeded by its stable URL, so the index
// is reproducible and recrawl-stable without storing documents.
package search

import (
	"fmt"
	"sort"
	"strconv"

	"p2prank/internal/nodeid"
	"p2prank/internal/overlay"
	"p2prank/internal/partition"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
	"p2prank/internal/xrand"
)

// Config parameterizes the synthetic text model and index.
type Config struct {
	// Vocabulary is the number of distinct terms (default 5000).
	Vocabulary int
	// TermsPerPage is how many distinct terms each page contains
	// (default 12).
	TermsPerPage int
	// Skew is the Zipf exponent of term popularity (default 1.0 —
	// natural-language-like).
	Skew float64
}

// DefaultConfig returns the standard text model.
func DefaultConfig() Config {
	return Config{Vocabulary: 5000, TermsPerPage: 12, Skew: 1.0}
}

func (c *Config) validate() error {
	if c.Vocabulary == 0 {
		c.Vocabulary = 5000
	}
	if c.TermsPerPage == 0 {
		c.TermsPerPage = 12
	}
	if c.Skew == 0 {
		c.Skew = 1.0
	}
	if c.Vocabulary < 1 || c.TermsPerPage < 1 {
		return fmt.Errorf("search: vocabulary %d / terms-per-page %d must be positive",
			c.Vocabulary, c.TermsPerPage)
	}
	if c.TermsPerPage > c.Vocabulary {
		return fmt.Errorf("search: TermsPerPage %d exceeds vocabulary %d",
			c.TermsPerPage, c.Vocabulary)
	}
	if c.Skew < 0 {
		return fmt.Errorf("search: negative skew %v", c.Skew)
	}
	return nil
}

// AppendTermName appends term t's canonical name ("term%05d") to dst
// and returns the extended slice — the allocation-free spelling for
// the query path. Negative terms (never produced by the text model)
// render without zero padding.
//
//p2plint:hotpath
func AppendTermName(dst []byte, t int32) []byte {
	dst = append(dst, "term"...)
	if t < 0 {
		return strconv.AppendInt(dst, int64(t), 10)
	}
	for pow := int32(10000); pow >= 10; pow /= 10 {
		if t < pow {
			dst = append(dst, '0')
		}
	}
	return strconv.AppendInt(dst, int64(t), 10)
}

// TermName renders term t as its canonical string.
func TermName(t int32) string {
	var buf [16]byte
	return string(AppendTermName(buf[:0], t))
}

// TextModel is the synthetic text model built from a validated
// Config: one Zipf table over the vocabulary, shared by every page's
// draw. Build it once per index; it is read-only and safe for
// concurrent use.
type TextModel struct {
	cfg  Config
	zipf *xrand.Zipf
}

// NewTextModel validates cfg (filling in zero fields) and builds the
// model's term-popularity table, O(Vocabulary) once.
func NewTextModel(cfg Config) (*TextModel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &TextModel{cfg: cfg, zipf: xrand.NewZipf(nil, cfg.Vocabulary, cfg.Skew)}, nil
}

// Config returns the model's config with defaults filled in.
func (m *TextModel) Config() Config { return m.cfg }

// AppendTerms appends page p's TermsPerPage distinct terms, ascending,
// to dst and returns the extended slice. The draw is a pure function of
// the page's URL (stable across recrawls) and the config. Duplicates
// are found by a linear scan and the terms put in order by insertion
// sort, both over at most TermsPerPage entries.
func (m *TextModel) AppendTerms(dst []int32, g webgraph.Store, p int32) []int32 {
	id := nodeid.Hash(g.URL(p))
	rng := xrand.New(id.Lo ^ id.Hi)
	start := len(dst)
	for len(dst)-start < m.cfg.TermsPerPage {
		t := int32(m.zipf.SampleWith(rng))
		i := len(dst)
		for i > start && dst[i-1] > t {
			i--
		}
		if i > start && dst[i-1] == t {
			continue
		}
		dst = append(dst, 0)
		copy(dst[i+1:], dst[i:])
		dst[i] = t
	}
	return dst
}

// TermsOf returns page p's distinct terms, ascending. It builds a
// TextModel per call; loops over many pages should build one model and
// call AppendTerms.
func TermsOf(g webgraph.Store, p int32, cfg Config) ([]int32, error) {
	m, err := NewTextModel(cfg)
	if err != nil {
		return nil, err
	}
	return m.AppendTerms(make([]int32, 0, m.cfg.TermsPerPage), g, p), nil
}

// Posting is one entry of a term's posting list: a page and its rank.
type Posting struct {
	Page  int32
	Score float64
}

// Index is the term-partitioned inverted index plus the rank vector.
type Index struct {
	cfg    Config
	ov     overlay.Network
	ranks  vecmath.Vec
	g      webgraph.Store
	assign *partition.Assignment
	// termOwner[t] is the ranker storing term t's posting list.
	termOwner []int32
	// postings[t] is sorted by Score descending (ties: page index).
	postings [][]Posting
	// PostingsMoved counts postings whose page lives on a different
	// ranker than the term owner — the index-construction traffic the
	// feasibility analysis of [17] is about.
	PostingsMoved int64
	// PostingsTotal counts all postings.
	PostingsTotal int64
}

// Build constructs the index from a ranked crawl. ranks must be the
// page-indexed rank vector (distributed or centralized); assign is the
// page partition; ov places terms on rankers.
func Build(g webgraph.Store, ranks vecmath.Vec, ov overlay.Network, assign *partition.Assignment, cfg Config) (*Index, error) {
	model, err := NewTextModel(cfg)
	if err != nil {
		return nil, err
	}
	cfg = model.Config()
	if len(ranks) != g.NumPages() {
		return nil, fmt.Errorf("search: ranks have length %d, want %d", len(ranks), g.NumPages())
	}
	if assign != nil && len(assign.GroupOf) != g.NumPages() {
		return nil, fmt.Errorf("search: assignment covers %d pages, want %d",
			len(assign.GroupOf), g.NumPages())
	}
	ix := &Index{
		cfg:       cfg,
		ov:        ov,
		ranks:     ranks,
		g:         g,
		assign:    assign,
		termOwner: make([]int32, cfg.Vocabulary),
		postings:  make([][]Posting, cfg.Vocabulary),
	}
	for t := 0; t < cfg.Vocabulary; t++ {
		ix.termOwner[t] = int32(ov.Owner(nodeid.Hash(TermName(int32(t)))))
	}
	terms := make([]int32, 0, cfg.TermsPerPage)
	for p := 0; p < g.NumPages(); p++ {
		terms = model.AppendTerms(terms[:0], g, int32(p))
		for _, t := range terms {
			ix.postings[t] = append(ix.postings[t], Posting{Page: int32(p), Score: ranks[p]})
			ix.PostingsTotal++
			if assign != nil && assign.GroupOf[p] != ix.termOwner[t] {
				ix.PostingsMoved++
			}
		}
	}
	for t := range ix.postings {
		ps := ix.postings[t]
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].Score != ps[j].Score {
				return ps[i].Score > ps[j].Score
			}
			return ps[i].Page < ps[j].Page
		})
	}
	return ix, nil
}

// TermOwner returns the ranker storing term t's posting list.
func (ix *Index) TermOwner(t int32) (int32, error) {
	if t < 0 || int(t) >= ix.cfg.Vocabulary {
		return 0, fmt.Errorf("%w: term %d, vocabulary %d", ErrUnknownTerm, t, ix.cfg.Vocabulary)
	}
	return ix.termOwner[t], nil
}

// PostingList returns term t's postings, best first. The slice aliases
// index storage and must not be modified.
func (ix *Index) PostingList(t int32) ([]Posting, error) {
	if t < 0 || int(t) >= ix.cfg.Vocabulary {
		return nil, fmt.Errorf("%w: term %d, vocabulary %d", ErrUnknownTerm, t, ix.cfg.Vocabulary)
	}
	return ix.postings[t], nil
}
