package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Name is "layer/op"; Parent is the span that
// made the call (0 for a root); Run groups the spans of one instance,
// repetition or query. Times are seconds since the tracer started.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Name   string  `json:"name"`
	Run    int64   `json:"run"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '/'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// busy aggregates calls too numerous to keep one span each (codec
// calls run into the millions): a count and the summed time, charged
// to the span they ran under.
type busy struct {
	Parent  int64   `json:"parent"`
	Layer   string  `json:"layer"`
	Calls   int64   `json:"calls"`
	Seconds float64 `json:"busy_s"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: do just calls through, and nothing is recorded.
type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
	busy  []busy
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) float64 { return at.Sub(t.epoch).Seconds() }

// newID reserves a span id, so a caller can hand it to children
// before the span itself closes.
func (t *tracer) newID() int64 { return t.next.Add(1) }

// do runs fn inside a span named name, passing fn the span's id so the
// calls fn makes can name it as their parent.
func (t *tracer) do(name string, parent, run int64, fn func(id int64) error) error {
	if t == nil {
		return fn(0)
	}
	id := t.newID()
	start := time.Now()
	err := fn(id)
	t.add(span{ID: id, Parent: parent, Name: name, Run: run, Start: t.since(start), End: t.since(time.Now())})
	return err
}

func (t *tracer) add(spans ...span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

func (t *tracer) addBusy(b busy) {
	if t == nil || b.Calls == 0 {
		return
	}
	t.mu.Lock()
	t.busy = append(t.busy, b)
	t.mu.Unlock()
}

// selfTimes charges every span its own time: its duration minus the
// part of that interval its child spans cover (children that overlap
// each other — parallel compute phases — are counted once), minus the
// busy time aggregated under it. Results are summed per layer; busy
// records add to their own layer. A span whose children outlast it
// (concurrent callees it did not wait for) is floored at zero.
func selfTimes(spans []span, agg []busy) map[string]float64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	busyUnder := make(map[int64]float64)
	out := make(map[string]float64)
	for _, b := range agg {
		busyUnder[b.Parent] += b.Seconds
		out[b.Layer] += b.Seconds
	}
	for _, s := range spans {
		self := s.End - s.Start - covered(s, children[s.ID]) - busyUnder[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.layer()] += self
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for _, r := range iv {
		if r[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = r[0], r[1]
		} else if r[1] > curHi {
			curHi = r[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// layerTable renders per-layer self time, largest first, with each
// layer's share of the total.
func layerTable(self map[string]float64) string {
	names := make([]string, 0, len(self))
	total := 0.0
	for n, v := range self {
		names = append(names, n)
		total += v
	}
	sort.Slice(names, func(i, j int) bool {
		if self[names[i]] != self[names[j]] {
			return self[names[i]] > self[names[j]]
		}
		return names[i] < names[j]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %7s\n", "layer", "self", "share")
	for _, n := range names {
		share := 0.0
		if total > 0 {
			share = self[n] / total
		}
		fmt.Fprintf(&b, "%-10s %9.3fs %6.1f%%\n", n, self[n], 100*share)
	}
	return b.String()
}

// dump writes the spans and busy records as JSON lines.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, b := range t.busy {
		if err := enc.Encode(b); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
