package codec

import (
	"encoding/binary"
	"math"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"p2prank/internal/transport"
	"p2prank/internal/xrand"
)

func allCodecs() []Codec {
	return []Codec{Plain{}, Delta{}, NewQuantized(20), NewQuantized(52)}
}

func randomChunk(r *xrand.Rand) transport.ScoreChunk {
	n := r.Intn(60)
	c := transport.ScoreChunk{
		SrcGroup: int32(r.Intn(1000)),
		DstGroup: int32(r.Intn(1000)),
		Round:    int64(r.Intn(100000)),
		Links:    int64(r.Intn(5000)),
	}
	idx := make(map[int32]bool)
	for len(idx) < n {
		idx[int32(r.Intn(100000))] = true
	}
	for i := range idx {
		c.Entries = append(c.Entries, transport.ScoreEntry{
			DstLocal: i,
			Value:    r.Float64() * 10,
		})
	}
	sort.Slice(c.Entries, func(a, b int) bool { return c.Entries[a].DstLocal < c.Entries[b].DstLocal })
	return c
}

func TestLosslessRoundTrip(t *testing.T) {
	for _, cd := range []Codec{Plain{}, Delta{}} {
		cd := cd
		t.Run(cd.Name(), func(t *testing.T) {
			f := func(seed uint64) bool {
				r := xrand.New(seed)
				in := randomChunk(r)
				out, err := cd.Decode(cd.Encode(nil, in))
				if err != nil {
					return false
				}
				if out.SrcGroup != in.SrcGroup || out.DstGroup != in.DstGroup ||
					out.Round != in.Round || out.Links != in.Links ||
					len(out.Entries) != len(in.Entries) {
					return false
				}
				for i := range in.Entries {
					if out.Entries[i] != in.Entries[i] {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestQuantizedRoundTripBoundedError(t *testing.T) {
	for _, bits := range []uint{8, 16, 24, 40} {
		q := NewQuantized(bits)
		maxRel := math.Pow(2, -float64(bits))
		f := func(seed uint64) bool {
			r := xrand.New(seed)
			in := randomChunk(r)
			out, err := q.Decode(q.Encode(nil, in))
			if err != nil {
				return false
			}
			if len(out.Entries) != len(in.Entries) {
				return false
			}
			for i := range in.Entries {
				if out.Entries[i].DstLocal != in.Entries[i].DstLocal {
					return false
				}
				v, w := in.Entries[i].Value, out.Entries[i].Value
				if v == 0 {
					if w != 0 {
						return false
					}
					continue
				}
				if math.Abs(w-v)/math.Abs(v) > maxRel {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("bits=%d: %v", bits, err)
		}
	}
}

func TestSizesLadder(t *testing.T) {
	r := xrand.New(7)
	// Dense chunk: consecutive indices maximize Delta's advantage.
	c := transport.ScoreChunk{SrcGroup: 1, DstGroup: 2, Round: 10, Links: 500}
	for i := 0; i < 500; i++ {
		c.Entries = append(c.Entries, transport.ScoreEntry{
			DstLocal: int32(i * 3),
			Value:    0.1 + r.Float64(),
		})
	}
	plain := EncodedSize(Plain{}, c)
	delta := EncodedSize(Delta{}, c)
	quant := EncodedSize(NewQuantized(16), c)
	if delta >= plain {
		t.Fatalf("delta (%d B) not below plain (%d B)", delta, plain)
	}
	if quant >= delta {
		t.Fatalf("quantized (%d B) not below delta (%d B)", quant, delta)
	}
	// And everything far below the paper's 100 B/link URL records.
	if plain >= int64(len(c.Entries))*100 {
		t.Fatalf("plain (%d B) not below the 100 B/link model (%d B)", plain, len(c.Entries)*100)
	}
}

func TestDecodeErrors(t *testing.T) {
	c := randomChunk(xrand.New(1))
	for _, cd := range allCodecs() {
		enc := cd.Encode(nil, c)
		// Truncations at every prefix must error, never panic.
		for cut := 0; cut < len(enc); cut++ {
			if _, err := cd.Decode(enc[:cut]); err == nil {
				// A prefix that happens to parse as a smaller valid
				// chunk is acceptable only if entry counts match the
				// header; header says len(c.Entries), so any true
				// prefix must fail.
				t.Fatalf("%s: truncation at %d accepted", cd.Name(), cut)
			}
		}
		// Trailing garbage must error for the delta codecs.
		if cd.Name() != "plain" {
			if _, err := cd.Decode(append(append([]byte{}, enc...), 0xFF)); err == nil {
				t.Errorf("%s: trailing garbage accepted", cd.Name())
			}
		}
	}
	if _, err := (Plain{}).Decode(nil); err == nil {
		t.Error("nil input accepted")
	}
}

func TestUnsortedPanics(t *testing.T) {
	c := transport.ScoreChunk{Entries: []transport.ScoreEntry{
		{DstLocal: 5, Value: 1}, {DstLocal: 2, Value: 1},
	}}
	for _, cd := range []Codec{Delta{}, NewQuantized(16)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: unsorted entries accepted", cd.Name())
				}
			}()
			cd.Encode(nil, c)
		}()
	}
}

func TestQuantizedClamps(t *testing.T) {
	if NewQuantized(0).MantissaBits != 4 {
		t.Error("low clamp failed")
	}
	if NewQuantized(99).MantissaBits != 52 {
		t.Error("high clamp failed")
	}
}

func TestEmptyChunk(t *testing.T) {
	c := transport.ScoreChunk{SrcGroup: 3, DstGroup: 4, Round: 1, Links: 0}
	for _, cd := range allCodecs() {
		out, err := cd.Decode(cd.Encode(nil, c))
		if err != nil {
			t.Fatalf("%s: %v", cd.Name(), err)
		}
		if len(out.Entries) != 0 || out.SrcGroup != 3 {
			t.Fatalf("%s: empty chunk mangled: %+v", cd.Name(), out)
		}
	}
}

func TestNames(t *testing.T) {
	if (Plain{}).Name() != "plain" || (Delta{}).Name() != "delta" {
		t.Fatal("codec names wrong")
	}
	if NewQuantized(16).Name() != "quantized-16" {
		t.Fatal("quantized name wrong")
	}
}

func BenchmarkEncodeDelta(b *testing.B) {
	c := randomChunk(xrand.New(1))
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = (Delta{}).Encode(buf[:0], c)
	}
}

func BenchmarkDecodeDelta(b *testing.B) {
	c := randomChunk(xrand.New(1))
	enc := (Delta{}).Encode(nil, c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Delta{}).Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// lyingHeader is a ~10-byte chunk whose header claims 2²⁴ entries.
func lyingHeader() []byte {
	var src []byte
	for _, v := range []uint64{1, 2, 3, 4, 1 << 24} {
		src = binary.AppendUvarint(src, v)
	}
	return append(src, 0, 0)
}

// allocDuring returns the bytes f allocated, per runtime.MemStats.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// An entry count the body cannot hold must be rejected before any slice
// is sized from it: sizing first would let a 10-byte chunk ask for
// hundreds of MiB.
func TestDecodeBoundsEntryCount(t *testing.T) {
	src := lyingHeader()
	for _, cd := range allCodecs() {
		var err error
		if n := allocDuring(func() { _, err = cd.Decode(src) }); n > 1<<20 {
			t.Errorf("%s: decoding a %d-byte chunk allocated %d bytes", cd.Name(), len(src), n)
		}
		if err == nil {
			t.Errorf("%s: accepted a header claiming 2^24 entries", cd.Name())
		}
	}
}
