package main

import (
	"math"
	"testing"
	"time"
)

// fakeClock advances only when the generator waits or an operation
// says how long it took.
type fakeClock struct{ t time.Duration }

func (f *fakeClock) now() time.Duration { return f.t }

func (f *fakeClock) waitUntil(t time.Duration) {
	if t > f.t {
		f.t = t
	}
}

func TestOpenLoopChargesStallsToLaterOperations(t *testing.T) {
	clk := &fakeClock{}
	ms := time.Millisecond
	service := []time.Duration{2 * ms, 25 * ms, 2 * ms, 2 * ms, 2 * ms}
	var afterCalls []int
	s := openLoop(clk, 10*ms, len(service), nil, func(i int) bool {
		clk.t += service[i]
		return true
	}, func(i int) { afterCalls = append(afterCalls, i) })
	// Due at 0,10,20,30,40 ms. Operation 1 stalls until 35 ms, so
	// operation 2 starts 15 ms late and operation 3 7 ms late; by
	// operation 4 the generator is back on schedule.
	wantLat := []float64{2, 25, 17, 9, 2}
	wantLate := []float64{0, 0, 15, 7, 0}
	for i := range service {
		if !near(s.Latency[i], wantLat[i]/1e3) || !near(s.Lateness[i], wantLate[i]/1e3) {
			t.Errorf("op %d: latency %v lateness %v, want %vms %vms", i, s.Latency[i], s.Lateness[i], wantLat[i], wantLate[i])
		}
	}
	if len(afterCalls) != len(service) || s.Attempted() != len(service) {
		t.Errorf("after ran %d times, attempted %d", len(afterCalls), s.Attempted())
	}
	if s.Elapsed != 42*ms {
		t.Errorf("elapsed %v, want 42ms", s.Elapsed)
	}
}

func TestOpenLoopKeepsMissesInTheSample(t *testing.T) {
	clk := &fakeClock{}
	s := openLoop(clk, time.Millisecond, 4, nil, func(i int) bool {
		clk.t += 100 * time.Microsecond
		return i != 2
	}, nil)
	if s.Misses != 1 || s.Attempted() != 4 || !math.IsInf(s.Latency[2], 1) {
		t.Fatalf("misses %d attempted %d latency %v", s.Misses, s.Attempted(), s.Latency)
	}
	if got := len(s.answered()); got != 3 {
		t.Errorf("answered = %d, want 3", got)
	}
	// With a miss among four samples p99 is +Inf: it fails any limit,
	// unless the limit is judged on the answered queries.
	if s.meets(time.Second, false) {
		t.Error("a storm with a miss at p99 met the limit")
	}
	if !s.meets(time.Second, true) {
		t.Error("the answered queries should meet a 1s limit")
	}
}

func TestOpenLoopStops(t *testing.T) {
	clk := &fakeClock{}
	calls := 0
	s := openLoop(clk, time.Millisecond, 100, func() bool { return calls == 3 }, func(int) bool {
		calls++
		return true
	}, nil)
	if s.Attempted() != 3 {
		t.Errorf("attempted %d, want 3", s.Attempted())
	}
}

func TestBacklogGrowth(t *testing.T) {
	ms := time.Millisecond
	// Service slower than the interval: every operation starts later
	// than the one before.
	clk := &fakeClock{}
	slow := openLoop(clk, ms, 100, nil, func(int) bool { clk.t += 2 * ms; return true }, nil)
	if !slow.backlogGrew(ms) || slow.meets(10*ms, false) {
		t.Error("an overloaded storm did not show a growing backlog")
	}
	// One 20 ms stall early on, then the server catches up: lateness
	// ends where it began.
	clk = &fakeClock{}
	bursty := openLoop(clk, ms, 100, nil, func(i int) bool {
		if i == 30 {
			clk.t += 20 * ms
		} else {
			clk.t += ms / 2
		}
		return true
	}, nil)
	if bursty.backlogGrew(ms) {
		t.Error("a recovered stall counted as a growing backlog")
	}
}
