package webgraph

import "hash/fnv"

// Store is read-only access to a crawled link graph, the interface every
// consumer (partitioning, group assembly, the centralized reference
// solver, experiments) types against. Its one implementation is *Graph,
// whose arrays either live on the heap or alias a memory-mapped
// version-2 file; consumers cannot tell which.
//
// Slices returned by InternalOut borrow the graph's backing memory:
// they must not be modified, and for a mapped graph they become invalid
// once Close unmaps the file. Copy before retaining.
//
// A Store is immutable after construction and safe for concurrent
// readers.
type Store interface {
	// NumPages returns the number of pages in the graph.
	NumPages() int
	// NumSites returns the number of sites in the graph.
	NumSites() int
	// NumInternalLinks returns the number of links with both endpoints
	// inside the crawl.
	NumInternalLinks() int64
	// NumExternalLinks returns the number of links whose destination is
	// outside the crawl. O(1): the sum is cached at build or open time.
	NumExternalLinks() int64
	// OutDegree returns d(u), counting internal and external links.
	OutDegree(u int32) int
	// InternalOut returns page u's internal out-neighbours as a
	// borrowed slice (see the interface comment).
	InternalOut(u int32) []int32
	// ExtOut returns the number of external out-links of page u.
	ExtOut(u int32) int32
	// SiteOf returns the site ID of page p.
	SiteOf(p int32) int32
	// LocalID returns page p's ordinal within its site.
	LocalID(p int32) int32
	// SiteHost returns the hostname of site s.
	SiteHost(s int32) string
	// URL returns the canonical URL of page p.
	URL(p int32) string
	// Fingerprint returns a stable FNV-64a digest of the graph
	// structure: equal fingerprints mean byte-identical sites, page
	// tables, and adjacency, independent of how the graph is stored.
	Fingerprint() uint64
	// Validate checks structural invariants (monotone CSR pointers,
	// in-range IDs) and recomputes the cached external-link sum and
	// fingerprint. O(pages + links).
	Validate() error
}

// fingerprintArrays is the canonical graph digest: FNV-64a over the
// three counts, the length-prefixed site hostnames, and the raw
// little-endian page/adjacency arrays, in that order. The on-disk
// format embeds the result in its header so a mapped graph answers
// Fingerprint without touching the arrays.
func fingerprintArrays(sites []string, siteOf, localID, extOut []int32, outPtr []int64, outDst []int32) uint64 {
	h := fnv.New64a()
	var buf [4096]byte
	n := 0
	flush := func() {
		h.Write(buf[:n])
		n = 0
	}
	w64 := func(v uint64) {
		if n+8 > len(buf) {
			flush()
		}
		for i := 0; i < 8; i++ {
			buf[n+i] = byte(v >> (8 * i))
		}
		n += 8
	}
	w32 := func(v uint32) {
		if n+4 > len(buf) {
			flush()
		}
		buf[n] = byte(v)
		buf[n+1] = byte(v >> 8)
		buf[n+2] = byte(v >> 16)
		buf[n+3] = byte(v >> 24)
		n += 4
	}
	w64(uint64(len(sites)))
	w64(uint64(len(siteOf)))
	w64(uint64(len(outDst)))
	for _, host := range sites {
		w64(uint64(len(host)))
		flush()
		h.Write([]byte(host))
	}
	for _, arr := range [][]int32{siteOf, localID, extOut, outDst} {
		for _, v := range arr {
			w32(uint32(v))
		}
	}
	for _, v := range outPtr {
		w64(uint64(v))
	}
	flush()
	return h.Sum64()
}
