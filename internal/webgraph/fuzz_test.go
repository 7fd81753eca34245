package webgraph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzOpenMapped throws arbitrary bytes at the version-2 parser. The
// contract under fuzzing: return an error or a graph whose accessors
// are safe for everything Validate accepts — never panic, never
// allocate proportionally to a lying header.
func FuzzOpenMapped(f *testing.F) {
	g := func() *Graph {
		var b Builder
		s := b.AddSite("seed.example")
		p0 := b.AddPage(s)
		p1 := b.AddPage(s)
		b.AddLink(p0, p1)
		b.AddLink(p1, p0)
		b.AddExternalLinks(p1, 2)
		return b.Build()
	}()
	var v2 bytes.Buffer
	if err := WriteMapped(&v2, g); err != nil {
		f.Fatal(err)
	}
	v1 := append([]byte(nil), v2.Bytes()...)
	v1[8] = 1 // a version-1 header, which the parser must refuse
	f.Add(v1)
	f.Add(v2.Bytes())
	f.Add(v1[:20])
	f.Add(v2.Bytes()[:80])
	f.Add([]byte("P2PRGRPH"))
	f.Add([]byte("not a graph at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := MappedFromBytes(data)
		if err != nil {
			return
		}
		if err := m.Validate(); err == nil {
			for p := 0; p < m.NumPages(); p++ {
				u := int32(p)
				_ = m.OutDegree(u)
				_ = m.InternalOut(u)
				_ = m.URL(u)
			}
		}
		m.Close()
	})
}

// FuzzReadText throws arbitrary text at the crawl-file parser. The
// contract under fuzzing: return an error or a graph, never panic; and
// any accepted input writes back (WriteText) to text that parses to a
// graph with the same fingerprint.
func FuzzReadText(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteText(&seed, tinyGraph(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("# a comment\n\nsite 0 a.edu\npage 0 0\n  \nlink 0 0\next 0 3\n")
	f.Add("site 0 a.edu\npage 0 0\nlink 4294967296 0\n")
	f.Add("site 0 a.edu\nsite 0 a.edu\npage 0 0\next 0 2147483647\n")
	f.Add("page 0 0\n")

	f.Fuzz(func(t *testing.T, text string) {
		g, err := ReadText(strings.NewReader(text))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("written graph does not parse: %v\n%s", err, buf.String())
		}
		if g2.Fingerprint() != g.Fingerprint() {
			t.Fatalf("round trip changed the fingerprint: %#x != %#x", g2.Fingerprint(), g.Fingerprint())
		}
	})
}
