package netpeer

import (
	"bufio"
	"bytes"
	"math"
	"runtime"
	"testing"

	"p2prank/internal/codec"
	"p2prank/internal/transport"
)

// encodeFrame writes f through codecWriter into a byte slice.
func encodeFrame(t testing.TB, cd transport.ChunkCodec, f frame) []byte {
	var out bytes.Buffer
	w := &codecWriter{codec: cd, w: bufio.NewWriter(&out)}
	if err := w.writeFrame(f); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// FuzzReadFrame throws arbitrary bytes at the codecWire frame reader.
// The contract: an error or a frame, never a panic; allocation bounded
// by the bytes that arrived, never by the counts and sizes a frame
// advertises; and a frame read back after codecWriter re-writes it is
// unchanged.
func FuzzReadFrame(f *testing.F) {
	acked := sampleFrame()
	acked.Acks = []wireAck{{From: 3, Round: 12}, {From: 1, Round: 40}}
	f.Add(encodeFrame(f, codec.Delta{}, acked))
	f.Add(encodeFrame(f, codec.Plain{}, sampleFrame()))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10})       // 2^60 chunks
	f.Add([]byte{0x80, 0x80, 0x40, 0x80, 0x80, 0x80, 0x20})                   // 2^20 chunks, then a 2^26-byte chunk
	f.Add([]byte{0x00, 0x80, 0x80, 0x40, 0x05, 0x01, 0x01, 0x01, 0x01, 0x01}) // 2^20 acks

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cd := range []transport.ChunkCodec{codec.Plain{}, codec.Delta{}} {
			r := &codecReader{codec: cd, r: bufio.NewReader(bytes.NewReader(data))}
			var got frame
			var err error
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err = r.readFrame()
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; n > 64*uint64(len(data))+1<<20 {
				t.Fatalf("%s: %d input bytes allocated %d", cd.Name(), len(data), n)
			}
			if err != nil {
				continue
			}
			back, err := (&codecReader{codec: cd, r: bufio.NewReader(bytes.NewReader(encodeFrame(t, cd, got)))}).readFrame()
			if err != nil {
				t.Fatalf("%s: re-written frame does not read: %v", cd.Name(), err)
			}
			if !framesEqual(got, back) {
				t.Fatalf("%s: round trip changed %+v into %+v", cd.Name(), got, back)
			}
		}
	})
}

// framesEqual compares scores bit for bit, so NaN round-trips count.
func framesEqual(a, b frame) bool {
	if len(a.Chunks) != len(b.Chunks) || len(a.Acks) != len(b.Acks) {
		return false
	}
	for i, c := range a.Chunks {
		d := b.Chunks[i]
		if c.SrcGroup != d.SrcGroup || c.DstGroup != d.DstGroup || c.Round != d.Round ||
			c.Links != d.Links || len(c.Entries) != len(d.Entries) {
			return false
		}
		for j, e := range c.Entries {
			if e.DstLocal != d.Entries[j].DstLocal || math.Float64bits(e.Value) != math.Float64bits(d.Entries[j].Value) {
				return false
			}
		}
	}
	for i, a := range a.Acks {
		if a != b.Acks[i] {
			return false
		}
	}
	return true
}
