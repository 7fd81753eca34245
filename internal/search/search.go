// Package search implements the application the paper's introduction
// motivates: a distributed search engine over the DHT, where page
// ranking "is not only needed as in its centralized counterpart for
// improving query results, but should be performed distributedly".
//
// The package holds the two halves every search component shares: the
// synthetic text model (Config, TextModel, TermName) and the query
// contract (Request, Response, Posting, Cost and the typed errors). The
// index itself lives in the serving tier (internal/serve): each ranker
// indexes the pages the §4.1 partition placed on it, and a query fans
// out to the shards holding its terms, intersects locally and merges
// the per-shard top-k ordered by the distributed PageRank scores.
//
// Page text is synthesized: each page deterministically draws terms
// from a Zipf-skewed vocabulary, seeded by its stable URL, so the index
// is reproducible and recrawl-stable without storing documents.
package search

import (
	"fmt"

	"p2prank/internal/nodeid"
	"p2prank/internal/webgraph"
	"p2prank/internal/xrand"
)

// Config parameterizes the synthetic text model.
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

// TermName renders term t as its canonical string, "term%05d".
func TermName(t int32) string {
	return fmt.Sprintf("term%05d", t)
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
