// Package core is the public façade of p2prank: one import that ties
// the substrates together for the common workflows — generate or load a
// crawl, rank it centrally, rank it distributedly over a structured P2P
// overlay, and compare.
//
// The heavy lifting lives in the focused packages (webgraph, pagerank,
// pastry/chord, partition, transport, dprcore, engine); core re-exports
// the configuration surface and adds convenience constructors so the
// examples and tools stay short.
package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/pagerank"
	"p2prank/internal/partition"
	"p2prank/internal/transport"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
)

// Re-exported configuration types, so callers need only this package
// for the common paths.
type (
	// Config configures a distributed ranking run (see engine.Config).
	Config = engine.Config
	// Params are the shared DPR loop parameters every runtime config
	// embeds (see dprcore.Params).
	Params = dprcore.Params
	// Result is a distributed ranking outcome (see engine.Result).
	Result = engine.Result
	// Sample is one time-series point of a run.
	Sample = engine.Sample
	// GenConfig configures the synthetic crawl generator.
	GenConfig = webgraph.GenConfig
	// Graph is a crawled link graph, built on the heap or mapped from a
	// version-2 file; it is the one Store implementation.
	Graph = webgraph.Graph
	// Store is the read interface every graph-consuming API accepts;
	// *Graph implements it.
	Store = webgraph.Store
)

// Re-exported enumerations.
const (
	// DPR1 solves each group to convergence per loop (Algorithm 3).
	DPR1 = dprcore.DPR1
	// DPR2 takes one Jacobi step per loop (Algorithm 4).
	DPR2 = dprcore.DPR2
	// BySite partitions pages by site hash (recommended, §4.1).
	BySite = partition.BySite
	// ByPage partitions pages by URL hash.
	ByPage = partition.ByPage
	// RandomPartition assigns pages uniformly at random.
	RandomPartition = partition.Random
	// Direct is lookup-then-send transmission (Figure 3).
	Direct = transport.Direct
	// Indirect is hop-by-hop packed transmission (Figures 4–5).
	Indirect = transport.Indirect
	// Pastry selects the Pastry overlay (the paper's substrate).
	Pastry = engine.Pastry
	// Chord selects the Chord overlay.
	Chord = engine.Chord
)

// GenerateCrawl builds a synthetic crawl with the paper-calibrated
// statistics (≈90% intra-site links, 8/15 of links external, mean
// out-degree 15) at the requested size.
func GenerateCrawl(pages int, seed uint64) (*Graph, error) {
	cfg := webgraph.DefaultGenConfig(pages)
	cfg.Seed = seed
	return webgraph.Generate(cfg)
}

// sniffFormat reads the 16-byte prefix of a graph file and reports
// whether it is a version-2 binary file (false means text). A binary
// file of any other version is an error: version 1, the old streamed
// format, is no longer supported.
func sniffFormat(f *os.File, path string) (bool, error) {
	hdr := make([]byte, 16)
	n, err := io.ReadFull(f, hdr)
	if err != nil && n == 0 {
		return false, fmt.Errorf("core: empty graph file %s", path)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return false, err
	}
	if n < 16 || string(hdr[:8]) != "P2PRGRPH" {
		return false, nil
	}
	if v := binary.LittleEndian.Uint64(hdr[8:]); v != 2 {
		return false, fmt.Errorf("core: %s: binary graph version %d not supported (want version 2)", path, v)
	}
	return true, nil
}

// OpenCrawl opens a crawl file with the cheapest store for its format,
// detected by its magic bytes: a version-2 binary file is memory-mapped
// in O(1), a text file is parsed onto the heap. Close the result when
// done with it (a no-op for a parsed text crawl).
func OpenCrawl(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	mapped, err := sniffFormat(f, path)
	switch {
	case err != nil:
		return nil, err
	case mapped:
		return webgraph.OpenMapped(path)
	default:
		return webgraph.ReadText(f)
	}
}

// SaveCrawl writes a crawl in the version-2 mapped binary format, the
// compact on-disk layout OpenCrawl reads back without parsing.
func SaveCrawl(path string, g Store) error {
	return webgraph.WriteMappedFile(path, g)
}

// RankCentralized computes the open-system centralized PageRank fixed
// point R* (the reference the distributed algorithms converge to).
func RankCentralized(g Store) (vecmath.Vec, error) {
	res, err := pagerank.Open(g, pagerank.Defaults())
	if err != nil {
		return nil, err
	}
	return res.Ranks, nil
}

// RankDistributed runs a distributed page-ranking experiment. Zero
// fields in cfg take the documented defaults; Graph, K, and MaxTime are
// required.
func RankDistributed(cfg Config) (*Result, error) {
	return engine.Run(cfg)
}

// RelativeError returns ‖a−b‖₁/‖b‖₁, the paper's comparison metric.
func RelativeError(a, b vecmath.Vec) float64 {
	return vecmath.RelErr1(a, b)
}

// TopPages returns the indices of the n highest-ranked pages, ties
// broken toward the smaller index.
func TopPages(ranks vecmath.Vec, n int) []int {
	if n > len(ranks) {
		n = len(ranks)
	}
	idx := make([]int, len(ranks))
	for i := range idx {
		idx[i] = i
	}
	// Partial selection sort: n is typically tiny (top-10 listings).
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if ranks[idx[j]] > ranks[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:n]
}
