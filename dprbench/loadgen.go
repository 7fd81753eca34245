package main

import (
	"fmt"
	"math"
	"time"
)

// clock is the generator's time source: elapsed time since the storm
// began, and a way to wait for a due time. Tests substitute a fake.
type clock interface {
	now() time.Duration
	waitUntil(t time.Duration)
}

// wallClock is the real clock. It sleeps through most of a wait and
// spins the last spinWindow, so due times are met to within a few
// microseconds: a sleep can overshoot by a millisecond (the timer
// granularity measured on a 2-vCPU VM), which at thousands of queries
// per second would make the generator, not the server, run late.
type wallClock struct{ epoch time.Time }

const spinWindow = 2 * time.Millisecond

func newWallClock() *wallClock { return &wallClock{epoch: time.Now()} }

func (c *wallClock) now() time.Duration { return time.Since(c.epoch) }

func (c *wallClock) waitUntil(t time.Duration) {
	if d := t - c.now(); d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	for c.now() < t {
	}
}

// loadStats is one open-loop storm's record. Every attempted operation
// is in Latency: answered ones with their time from due to completion,
// misses (sheds, errors) as +Inf, so a miss counts against every limit
// and is never dropped from the sample.
type loadStats struct {
	Latency  []float64 // seconds, due → done; +Inf for misses
	Lateness []float64 // seconds, due → start: how late the generator ran
	Misses   int
	Elapsed  time.Duration
}

// Attempted is the number of operations issued.
func (s *loadStats) Attempted() int { return len(s.Latency) }

// openLoop issues operations on a fixed schedule — operation i is due
// at i·interval — from this one goroutine, regardless of how long
// earlier ones took: a stall delays later operations, and that delay is
// charged to them because latency runs from the due time, not from the
// actual start. op returns false for a miss. after, when set, runs
// once op's completion has been timed — bookkeeping that must happen
// between operations but is not part of the one just served (it can
// still make the next one late). The storm ends after n operations,
// or earlier when stop reports true (checked before each).
func openLoop(clk clock, interval time.Duration, n int, stop func() bool, op func(i int) bool, after func(i int)) *loadStats {
	s := &loadStats{
		Latency:  make([]float64, 0, n),
		Lateness: make([]float64, 0, n),
	}
	begin := clk.now()
	for i := 0; i < n; i++ {
		if stop != nil && stop() {
			break
		}
		due := begin + time.Duration(i)*interval
		clk.waitUntil(due)
		start := clk.now()
		ok := op(i)
		end := clk.now()
		s.Lateness = append(s.Lateness, (start - due).Seconds())
		if ok {
			s.Latency = append(s.Latency, (end - due).Seconds())
		} else {
			s.Latency = append(s.Latency, math.Inf(1))
			s.Misses++
		}
		if after != nil {
			after(i)
		}
	}
	s.Elapsed = clk.now() - begin
	return s
}

// backlogGrew reports whether the generator fell progressively behind:
// the median lateness of the storm's last tenth exceeds that of its
// first tenth by more than limit. A server that keeps up shows flat
// lateness however bursty its service times are.
func (s *loadStats) backlogGrew(limit time.Duration) bool {
	n := len(s.Lateness)
	tenth := n / 10
	if tenth == 0 {
		return false
	}
	first := median(s.Lateness[:tenth])
	last := median(s.Lateness[n-tenth:])
	return last-first > limit.Seconds()
}

// meets reports whether the storm met a p99 latency limit without a
// growing backlog. Misses count as over the limit unless answeredOnly
// — for a workload whose misses are by design independent of the
// offered rate, where they would hide the rate's own effect.
func (s *loadStats) meets(limit time.Duration, answeredOnly bool) bool {
	lat := s.Latency
	if answeredOnly {
		lat = s.answered()
	}
	p := percentile(sortedCopy(lat), 99)
	return p.N > 0 && p.Value <= limit.Seconds() && !s.backlogGrew(limit)
}

// answered is the latency sample without the misses.
func (s *loadStats) answered() []float64 {
	out := make([]float64, 0, len(s.Latency)-s.Misses)
	for _, v := range s.Latency {
		if !math.IsInf(v, 1) {
			out = append(out, v)
		}
	}
	return out
}

// describe renders a storm's percentiles, each with its sample count.
func (s *loadStats) describe() string {
	lat := sortedCopy(s.Latency)
	late := sortedCopy(s.Lateness)
	p50, p99 := percentile(lat, 50), percentile(lat, 99)
	l99 := percentile(late, 99)
	return fmt.Sprintf("n=%d misses=%d p50=%s p99=%s (%d beyond) lateness p99=%s",
		p50.N, s.Misses, micros(p50.Value), micros(p99.Value), p99.Beyond, micros(l99.Value))
}

func micros(sec float64) string {
	if math.IsInf(sec, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%.1fµs", sec*1e6)
}
