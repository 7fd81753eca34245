package serve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"p2prank/internal/nodeid"
	"p2prank/internal/partition"
	"p2prank/internal/pastry"
	"p2prank/internal/search"
	"p2prank/internal/webgraph"
)

// indexFingerprint hashes every shard's CSR (terms, offsets, locals)
// and the planner's term→shards map, in order.
func indexFingerprint(f *Frontend) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(xs []int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(len(xs)))
		h.Write(buf[:])
		for _, x := range xs {
			binary.LittleEndian.PutUint32(buf[:], uint32(x))
			h.Write(buf[:])
		}
	}
	for i := range f.shards {
		sh := &f.shards[i]
		put(sh.pages)
		put(sh.terms)
		put(sh.off)
		put(sh.locals)
	}
	for _, ss := range f.termShards {
		put(ss)
	}
	return h.Sum64()
}

// TestFrontendIndexGolden pins the shard indexes' exact layout. The
// fingerprints were captured from the original pair-sort packing, so
// the build may change how it packs but not what it packs.
func TestFrontendIndexGolden(t *testing.T) {
	gcfg := webgraph.DefaultGenConfig(3000)
	gcfg.Sites = 60
	gcfg.Seed = 5
	g, err := webgraph.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	const k = 24
	ids := make([]nodeid.ID, k)
	for i := range ids {
		ids[i] = nodeid.Hash(fmt.Sprintf("ranker-%d", i))
	}
	ov, err := pastry.New(ids, pastry.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mode partition.Strategy
		text search.Config
		want uint64
	}{
		{"by-site/default", partition.BySite, search.DefaultConfig(), 0x47d6ee4b9b0bae74},
		{"by-page/small", partition.ByPage, search.Config{Vocabulary: 1000, TermsPerPage: 4, Skew: 1}, 0xf962ff26d7a48c2c},
	} {
		assign, err := partition.Assign(g, ov, tc.mode, 1)
		if err != nil {
			t.Fatal(err)
		}
		store, err := NewStore(k)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFrontend(g, ov, assign, store, Config{Text: tc.text})
		if err != nil {
			t.Fatal(err)
		}
		if got := indexFingerprint(f); got != tc.want {
			t.Errorf("%s: index fingerprint %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
