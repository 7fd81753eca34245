package webgraph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text format
//
// A human-editable line format so small real edge lists can be fed in:
//
//	# comment
//	site <id> <hostname>
//	page <pageID> <siteID>
//	link <src> <dst>
//	ext <pageID> <count>
//
// Page and site IDs must be dense and ascending (page 0,1,2,...), which
// keeps the reader a single pass.

// WriteText writes g in the text format.
func WriteText(w io.Writer, g Store) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# p2prank webgraph: %d sites, %d pages, %d internal links\n",
		g.NumSites(), g.NumPages(), g.NumInternalLinks())
	for i := 0; i < g.NumSites(); i++ {
		fmt.Fprintf(bw, "site %d %s\n", i, g.SiteHost(int32(i)))
	}
	for p := 0; p < g.NumPages(); p++ {
		fmt.Fprintf(bw, "page %d %d\n", p, g.SiteOf(int32(p)))
	}
	for p := 0; p < g.NumPages(); p++ {
		for _, d := range g.InternalOut(int32(p)) {
			fmt.Fprintf(bw, "link %d %d\n", p, d)
		}
		if ext := g.ExtOut(int32(p)); ext > 0 {
			fmt.Fprintf(bw, "ext %d %d\n", p, ext)
		}
	}
	return bw.Flush()
}

// ReadText parses the text format. The Builder checks every line as it
// is added, so the result needs no separate Validate pass.
func ReadText(r io.Reader) (*Graph, error) {
	var b Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		fail := func(msg string) error {
			return fmt.Errorf("webgraph: line %d: %s: %q", lineNo, msg, line)
		}
		switch fields[0] {
		case "site":
			if len(fields) != 3 {
				return nil, fail("site needs 2 args")
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fail("bad site id")
			}
			if got := b.AddSite(fields[2]); int(got) != id {
				return nil, fail(fmt.Sprintf("site ids must be dense ascending (got %d)", got))
			}
		case "page":
			if len(fields) != 3 {
				return nil, fail("page needs 2 args")
			}
			id, err1 := strconv.Atoi(fields[1])
			site, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fail("bad page/site id")
			}
			if site < 0 || site >= len(b.sites) {
				return nil, fail("unknown site")
			}
			if got := b.AddPage(int32(site)); int(got) != id {
				return nil, fail(fmt.Sprintf("page ids must be dense ascending (got %d)", got))
			}
		case "link":
			if len(fields) != 3 {
				return nil, fail("link needs 2 args")
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fail("bad link endpoints")
			}
			if err := b.AddLink(int32(u), int32(v)); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
		case "ext":
			if len(fields) != 3 {
				return nil, fail("ext needs 2 args")
			}
			u, err1 := strconv.Atoi(fields[1])
			k, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fail("bad ext fields")
			}
			if err := b.AddExternalLinks(int32(u), k); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
		default:
			return nil, fail("unknown directive")
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("webgraph: reading text graph: %w", err)
	}
	return b.Build(), nil
}
