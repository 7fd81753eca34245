package search

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"p2prank/internal/webgraph"
)

// termsFingerprint hashes every page's AppendTerms output, in page
// order.
func termsFingerprint(t *testing.T, g webgraph.Store, cfg Config) uint64 {
	t.Helper()
	m := newModel(t, cfg)
	h := fnv.New64a()
	var buf [4]byte
	var terms []int32
	for p := 0; p < g.NumPages(); p++ {
		terms = m.AppendTerms(terms[:0], g, int32(p))
		for _, term := range terms {
			binary.LittleEndian.PutUint32(buf[:], uint32(term))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestAppendTermsGolden pins the synthetic text model: the fingerprints
// were captured from the original per-page-table draw, so any change to
// the sampler, the seeding or the duplicate handling shows up here.
func TestAppendTermsGolden(t *testing.T) {
	cfg := webgraph.DefaultGenConfig(2000)
	cfg.Seed = 3
	g, err := webgraph.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"default", DefaultConfig(), 0x91fbdb3f06e6b750},
		{"small", Config{Vocabulary: 1000, TermsPerPage: 4, Skew: 1}, 0x42a1fa9f8463fc0d},
	} {
		if got := termsFingerprint(t, g, tc.cfg); got != tc.want {
			t.Errorf("%s: terms fingerprint %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
