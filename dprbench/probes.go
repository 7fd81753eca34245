package main

import (
	"sync/atomic"
	"time"

	"p2prank/internal/dprcore"
	"p2prank/internal/telemetry"
	"p2prank/internal/transport"
)

// phaseProbe is the benchmark's telemetry.Observer, installed through
// dprcore.Params.Observer in traced runs. It times every compute phase
// (the group solve) as a span and counts the commit phase's chunks.
// Hooks for one ranker are serialized by its driver while different
// rankers may run in parallel, so each ranker has its own slot and the
// slots are only read after the run has returned.
type phaseProbe struct {
	telemetry.Noop
	tr     *tracer
	parent atomic.Int64 // the span the phases ran under
	run    int64
	dpr1   bool
	slots  []phaseSlot
}

type phaseSlot struct {
	start    time.Time
	phases   int64
	inner    int64
	xEntries int64
	idle     int64 // DPR1 phases whose inner solve stopped after <= 1 iteration
	chunks   int64
	entries  int64
	busy     time.Duration
	spans    []span
}

func newPhaseProbe(tr *tracer, parent, run int64, k int, alg dprcore.Algorithm) *phaseProbe {
	p := &phaseProbe{tr: tr, run: run, dpr1: alg == dprcore.DPR1, slots: make([]phaseSlot, k)}
	p.parent.Store(parent)
	return p
}

// ComputeStart implements telemetry.Observer.
func (p *phaseProbe) ComputeStart(ranker int, _ int64) { p.slots[ranker].start = time.Now() }

// ComputeEnd implements telemetry.Observer.
func (p *phaseProbe) ComputeEnd(ranker int, _ int64, s telemetry.ComputeStats) {
	end := time.Now()
	sl := &p.slots[ranker]
	sl.phases++
	sl.inner += int64(s.InnerIterations)
	sl.xEntries += int64(s.XEntries)
	if p.dpr1 && s.InnerIterations <= 1 {
		sl.idle++
	}
	sl.busy += end.Sub(sl.start)
	sl.spans = append(sl.spans, span{
		ID: p.tr.newID(), Parent: p.parent.Load(), Name: "solve/compute", Run: p.run,
		Start: p.tr.since(sl.start), End: p.tr.since(end),
	})
}

// ChunkSent implements telemetry.Observer.
func (p *phaseProbe) ChunkSent(ranker int, c telemetry.ChunkStats) {
	p.slots[ranker].chunks++
	p.slots[ranker].entries += int64(c.Entries)
}

// flush hands the recorded spans to the tracer and adds the totals to
// the run's per-layer counters. Call once the run has returned.
func (p *phaseProbe) flush(c *runCtx) {
	var phases, inner, xEntries, idle, chunks, entries int64
	var busyT time.Duration
	for i := range p.slots {
		sl := &p.slots[i]
		phases += sl.phases
		inner += sl.inner
		xEntries += sl.xEntries
		idle += sl.idle
		chunks += sl.chunks
		entries += sl.entries
		busyT += sl.busy
		p.tr.add(sl.spans...)
	}
	c.addLayer("dprcore.compute_phases", float64(phases))
	c.addLayer("dprcore.compute_busy_s", busyT.Seconds())
	c.addLayer("dprcore.inner_iters", float64(inner))
	c.addLayer("dprcore.x_entries", float64(xEntries))
	c.addLayer("dprcore.chunks_sent", float64(chunks))
	c.addLayer("dprcore.chunk_entries", float64(entries))
	if p.dpr1 {
		c.idlePhases += idle
		c.dpr1Phases += phases
	}
}

// codecProbe wraps a transport.ChunkCodec, installed through
// engine.Config.Codec / netpeer.ClusterConfig.Codec. It always counts
// calls, encoded bytes and decode errors (a handful of atomic adds per
// chunk). When timed (traced runs) it also clocks one call in every
// codecSampleEvery and scales the sampled time up to all calls: with
// millions of calls of a microsecond or two, timing each one would
// double the cost being measured. Live peers call it from many
// goroutines, hence the atomics.
type codecProbe struct {
	inner transport.ChunkCodec
	timed bool

	encCalls, decCalls atomic.Int64
	encNs, decNs       atomic.Int64 // summed over the sampled calls
	encBytes, decErrs  atomic.Int64
}

const codecSampleEvery = 16

func newCodecProbe(inner transport.ChunkCodec, timed bool) *codecProbe {
	return &codecProbe{inner: inner, timed: timed}
}

// Name implements transport.ChunkCodec.
func (c *codecProbe) Name() string { return c.inner.Name() }

// Encode implements transport.ChunkCodec.
func (c *codecProbe) Encode(dst []byte, ch transport.ScoreChunk) []byte {
	n := len(dst)
	sample := c.encCalls.Add(1)%codecSampleEvery == 0 && c.timed
	var t0 time.Time
	if sample {
		t0 = time.Now()
	}
	out := c.inner.Encode(dst, ch)
	if sample {
		c.encNs.Add(int64(time.Since(t0)))
	}
	c.encBytes.Add(int64(len(out) - n))
	return out
}

// Decode implements transport.ChunkCodec.
func (c *codecProbe) Decode(src []byte) (transport.ScoreChunk, error) {
	sample := c.decCalls.Add(1)%codecSampleEvery == 0 && c.timed
	var t0 time.Time
	if sample {
		t0 = time.Now()
	}
	ch, err := c.inner.Decode(src)
	if sample {
		c.decNs.Add(int64(time.Since(t0)))
	}
	if err != nil {
		c.decErrs.Add(1)
	}
	return ch, err
}

// flush reports the codec's counters and charges its busy time, as
// aggregated records, to the span the codec ran under.
func (c *codecProbe) flush(ctx *runCtx, parent int64) {
	ctx.addLayer("codec.encode_calls", float64(c.encCalls.Load()))
	ctx.addLayer("codec.decode_calls", float64(c.decCalls.Load()))
	ctx.addLayer("codec.encoded_bytes", float64(c.encBytes.Load()))
	enc := sampledBusy(c.encNs.Load(), c.encCalls.Load())
	dec := sampledBusy(c.decNs.Load(), c.decCalls.Load())
	ctx.addLayer("codec.encode_busy_s", enc)
	ctx.addLayer("codec.decode_busy_s", dec)
	ctx.tr.addBusy(busy{Parent: parent, Layer: "codec", Calls: c.encCalls.Load() + c.decCalls.Load(), Seconds: enc + dec})
	ctx.check("codec decodes without error", c.decErrs.Load() == 0, "%d decode errors", c.decErrs.Load())
}

// sampledBusy scales the time of the sampled calls (every
// codecSampleEvery-th) to all calls.
func sampledBusy(sampledNs, calls int64) float64 {
	sampled := calls / codecSampleEvery
	if sampled == 0 {
		return 0
	}
	return time.Duration(sampledNs).Seconds() * float64(calls) / float64(sampled)
}
