package webgraph

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"testing"
)

// mappedBytes serializes g in the version-2 format.
func mappedBytes(t testing.TB, g Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMapped(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMappedRoundTripHandWritten(t *testing.T) {
	g := tinyGraph(t)
	m, err := MappedFromBytes(mappedBytes(t, g))
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, m)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMappedRoundTripGenerated(t *testing.T) {
	g, err := Generate(DefaultGenConfig(3000))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := WriteMappedFile(path, g); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	graphsEqual(t, g, m)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMappedEmptyGraph(t *testing.T) {
	var b Builder
	g := b.Build()
	m, err := MappedFromBytes(mappedBytes(t, g))
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, m)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Both serializations of one graph — text and version-2 binary — must
// decode to graphs with identical structure and fingerprints.
func TestFormatsAgree(t *testing.T) {
	for _, pages := range []int{37, 1500} {
		g, err := Generate(DefaultGenConfig(pages))
		if err != nil {
			t.Fatal(err)
		}
		var tb bytes.Buffer
		if err := WriteText(&tb, g); err != nil {
			t.Fatal(err)
		}
		fromText, err := ReadText(&tb)
		if err != nil {
			t.Fatal(err)
		}
		fromV2, err := MappedFromBytes(mappedBytes(t, g))
		if err != nil {
			t.Fatal(err)
		}
		graphsEqual(t, g, fromText)
		graphsEqual(t, g, fromV2)
	}
}

// Close drops a mapped graph's arrays and leaves a heap graph intact.
func TestCloseReleasesOnlyMappedGraphs(t *testing.T) {
	g := tinyGraph(t)
	m, err := MappedFromBytes(mappedBytes(t, g))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if m.NumPages() != 0 || m.NumInternalLinks() != 0 {
		t.Fatalf("closed mapped graph still has %d pages, %d links", m.NumPages(), m.NumInternalLinks())
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if g.NumPages() != 4 || g.Validate() != nil {
		t.Fatal("Close changed a heap graph")
	}
}

// TestMappedCorruptInputs table-tests the parser's error paths: every
// mutation of a valid file must produce an error at open (header and
// table damage) or at Validate (payload damage), never a panic or a
// silently wrong graph.
func TestMappedCorruptInputs(t *testing.T) {
	g := tinyGraph(t)
	valid := mappedBytes(t, g)
	descs, _ := mappedLayout(g)
	outPtrOff := int(descs[5].off)
	outDstOff := int(descs[6].off)
	siteOffOff := int(descs[0].off)

	openFails := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated header", func(b []byte) []byte { return b[:40] }},
		{"truncated mid-table", func(b []byte) []byte { return b[:100] }},
		{"truncated body", func(b []byte) []byte { return b[:len(b)-8] }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"version 1", func(b []byte) []byte { b[8] = 1; return b }},
		{"version 99", func(b []byte) []byte { b[8] = 99; return b }},
		{"implausible pages", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:], 1<<40)
			return b
		}},
		{"wrong section count", func(b []byte) []byte { b[56] = 3; return b }},
		{"section kind out of order", func(b []byte) []byte { b[64] = 5; return b }},
		{"wrong element size", func(b []byte) []byte { b[64+4] = 2; return b }},
		{"section offset unaligned", func(b []byte) []byte { b[64+8]++; return b }},
		{"section count disagrees with header", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[64+16:], 99)
			return b
		}},
		{"section beyond file", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[64+6*24+8:], 1<<30)
			return b
		}},
		{"site offsets corrupt", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[siteOffOff+4:], 1<<20)
			return b
		}},
		{"outptr endpoint mismatch", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[outPtrOff+4*8:], 99) // last OutPtr entry
			return b
		}},
	}
	for _, tc := range openFails {
		data := tc.mutate(append([]byte(nil), valid...))
		if m, err := MappedFromBytes(data); err == nil {
			m.Close()
			t.Errorf("%s: accepted at open", tc.name)
		}
	}

	// Payload damage parses (open is O(1) and never reads it) but must
	// fail Validate.
	validateFails := []struct {
		name   string
		mutate func([]byte)
	}{
		{"edge out of range", func(b []byte) { binary.LittleEndian.PutUint32(b[outDstOff:], 1<<20) }},
		{"edge rewired", func(b []byte) { b[outDstOff] ^= 1 }}, // still in range: fingerprint catches it
		{"external count tampered", func(b []byte) {
			binary.LittleEndian.PutUint32(b[int(descs[4].off)+3*4:], 7)
		}},
	}
	for _, tc := range validateFails {
		data := append([]byte(nil), valid...)
		tc.mutate(data)
		m, err := MappedFromBytes(data)
		if err != nil {
			continue // even better: caught at open
		}
		if err := m.Validate(); err == nil {
			t.Errorf("%s: passed Validate", tc.name)
		}
		m.Close()
	}
}

func TestMappedLayoutSizes(t *testing.T) {
	g := tinyGraph(t) // 1 site ("example.edu" = 11 bytes), 4 pages, 4 links
	infos, total := MappedLayout(g)
	want := map[string]int64{
		"site-offsets": 8,  // u32 × 2
		"site-names":   11, // len("example.edu")
		"site-of":      16, // i32 × 4
		"local-id":     16,
		"ext-out":      16,
		"out-ptr":      40, // i64 × 5
		"out-dst":      16,
	}
	for _, info := range infos {
		if info.Bytes != want[info.Name] {
			t.Errorf("section %s = %d bytes, want %d", info.Name, info.Bytes, want[info.Name])
		}
	}
	if int64(len(mappedBytes(t, g))) != total {
		t.Errorf("MappedLayout total %d, written file is %d bytes", total, len(mappedBytes(t, g)))
	}
}

// BenchmarkGraphLoadMapped vs BenchmarkGraphLoadText is the storage
// tentpole's measured claim: opening the version-2 format is O(1) in
// the graph size (map, parse the 232-byte header and section table,
// decode site names), while the text format pays a full parse. Both
// load the same 10⁴-page graph.
func BenchmarkGraphLoadMapped(b *testing.B) {
	g, err := Generate(DefaultGenConfig(10000))
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "g.bin")
	if err := WriteMappedFile(path, g); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := OpenMapped(path)
		if err != nil {
			b.Fatal(err)
		}
		if m.NumPages() != g.NumPages() {
			b.Fatal("wrong page count")
		}
		m.Close()
	}
}

func BenchmarkGraphLoadText(b *testing.B) {
	g, err := Generate(DefaultGenConfig(10000))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rg, err := ReadText(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if rg.NumPages() != g.NumPages() {
			b.Fatal("wrong page count")
		}
	}
}

func TestMappedHeaderCaches(t *testing.T) {
	g, err := Generate(DefaultGenConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	m, err := MappedFromBytes(mappedBytes(t, g))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.NumExternalLinks() != g.NumExternalLinks() {
		t.Errorf("cached external links %d, want %d", m.NumExternalLinks(), g.NumExternalLinks())
	}
	if m.Fingerprint() != g.Fingerprint() {
		t.Errorf("cached fingerprint %#x, want %#x", m.Fingerprint(), g.Fingerprint())
	}
}
