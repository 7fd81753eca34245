package core

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGenerateAndRankCentralized(t *testing.T) {
	g, err := GenerateCrawl(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	ranks, err := RankCentralized(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != g.NumPages() {
		t.Fatalf("rank vector length %d", len(ranks))
	}
	if ranks.Min() <= 0 {
		t.Fatal("non-positive rank")
	}
}

func TestRankDistributedEndToEnd(t *testing.T) {
	g, err := GenerateCrawl(2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RankDistributed(Config{
		Params: Params{Alg: DPR1, T1: 0.5, T2: 3},
		Graph:  g, K: 6, MaxTime: 400, TargetRelErr: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedAt < 0 {
		t.Fatalf("did not converge (rel err %v)", res.RelErr)
	}
	if re := RelativeError(res.Final, res.Reference); re > 1e-6 {
		t.Fatalf("relative error %v", re)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g, err := GenerateCrawl(800, 5)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "crawl.bin")
	if err := SaveCrawl(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := OpenCrawl(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if g2.Fingerprint() != g.Fingerprint() || g2.Validate() != nil {
		t.Fatal("round trip changed the graph")
	}
	if g2.NumPages() != g.NumPages() || g2.NumInternalLinks() != g.NumInternalLinks() {
		t.Fatal("round trip changed the graph")
	}
}

func TestOpenCrawlTextFallback(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crawl.txt")
	content := "site 0 a.edu\npage 0 0\npage 1 0\nlink 0 1\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := OpenCrawl(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPages() != 2 || g.NumInternalLinks() != 1 {
		t.Fatalf("parsed %d pages %d links", g.NumPages(), g.NumInternalLinks())
	}
}

func TestOpenCrawlErrors(t *testing.T) {
	if _, err := OpenCrawl("/nonexistent/file"); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCrawl(empty); err == nil {
		t.Error("empty file accepted")
	}
}

// A version-1 binary file is refused by name, not handed to the text
// parser or the version-2 mapper.
func TestOpenCrawlRejectsVersion1(t *testing.T) {
	g, err := GenerateCrawl(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v1.bin")
	if err := SaveCrawl(path, g); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[8] = 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenCrawl(path)
	if err == nil || !strings.Contains(err.Error(), "version 1 not supported") {
		t.Fatalf("version-1 file: err = %v", err)
	}
}

// A mapped file whose payload is corrupt — here one out-dst entry far
// past the page count — is refused at open, not handed to a reader
// that would index past its arrays.
func TestOpenCrawlValidatesMappedPayload(t *testing.T) {
	g, err := GenerateCrawl(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumInternalLinks() == 0 {
		t.Fatal("crawl has no links to corrupt")
	}
	path := filepath.Join(t.TempDir(), "crawl.bin")
	if err := SaveCrawl(path, g); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The out-dst section is the seventh entry of the section table
	// that starts at byte 64: {u32 kind, u32 elemSize, u64 off, u64 count}.
	off := binary.LittleEndian.Uint64(data[64+6*24+8:])
	binary.LittleEndian.PutUint32(data[off:], 0x7fffff00)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if g2, err := OpenCrawl(path); err == nil {
		g2.Close()
		t.Fatal("corrupt out-dst entry accepted")
	}
}

func TestTopPages(t *testing.T) {
	ranks := []float64{0.1, 0.9, 0.5, 0.9}
	top := TopPages(ranks, 3)
	if len(top) != 3 {
		t.Fatalf("top = %v", top)
	}
	if top[0] != 1 || top[1] != 3 || top[2] != 2 {
		t.Fatalf("top = %v, want [1 3 2] (ties toward smaller index)", top)
	}
	if got := TopPages(ranks, 99); len(got) != 4 {
		t.Fatalf("oversized n returned %d entries", len(got))
	}
	if got := TopPages(nil, 3); len(got) != 0 {
		t.Fatalf("empty ranks returned %v", got)
	}
}

func TestSaveCrawlErrors(t *testing.T) {
	g, err := GenerateCrawl(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveCrawl("/nonexistent-dir/x.bin", g); err == nil {
		t.Error("save into missing directory accepted")
	}
}
