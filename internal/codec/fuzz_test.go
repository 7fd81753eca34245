package codec

import (
	"math"
	"testing"

	"p2prank/internal/transport"
	"p2prank/internal/xrand"
)

// FuzzDecode throws arbitrary bytes at every codec. The contract: an
// error or a chunk, never a panic; allocation bounded by the input
// size, never by what a header claims; and for the lossless codecs, a
// decoded chunk re-encodes to one that decodes back equal.
func FuzzDecode(f *testing.F) {
	for _, cd := range allCodecs() {
		f.Add(cd.Encode(nil, randomChunk(xrand.New(3))))
	}
	f.Add(lyingHeader())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cd := range allCodecs() {
			var c transport.ScoreChunk
			var err error
			if n := allocDuring(func() { c, err = cd.Decode(data) }); n > 16*uint64(len(data))+1<<20 {
				t.Fatalf("%s: %d input bytes allocated %d", cd.Name(), len(data), n)
			}
			if err != nil {
				continue
			}
			if _, lossy := cd.(Quantized); lossy {
				cd.Encode(nil, c) // must not panic on anything Decode accepts
				continue
			}
			back, err := cd.Decode(cd.Encode(nil, c))
			if err != nil {
				t.Fatalf("%s: re-encoded chunk does not decode: %v", cd.Name(), err)
			}
			if !chunksEqual(c, back) {
				t.Fatalf("%s: round trip changed %+v into %+v", cd.Name(), c, back)
			}
		}
	})
}

// chunksEqual compares scores bit for bit, so NaN round-trips count.
func chunksEqual(a, b transport.ScoreChunk) bool {
	if a.SrcGroup != b.SrcGroup || a.DstGroup != b.DstGroup || a.Round != b.Round ||
		a.Links != b.Links || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i, e := range a.Entries {
		f := b.Entries[i]
		if e.DstLocal != f.DstLocal || math.Float64bits(e.Value) != math.Float64bits(f.Value) {
			return false
		}
	}
	return true
}
