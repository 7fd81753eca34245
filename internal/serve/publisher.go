package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"p2prank/internal/dprcore"
	"p2prank/internal/telemetry"
)

// Publisher adapts a Store to the dprcore checkpoint seam: install it
// as Params.Checkpoint.Sink and every snapshot a ranker checkpoints is
// also published for serving — the checkpoint cadence becomes the
// serving staleness bound. The DPRS bytes are decoded (header + rank
// vector; the chunk tables don't matter to serving) and republished as
// an immutable ShardSnapshot.
//
// Save copies what it keeps, per the Checkpointer contract, and may be
// called concurrently by different rankers (live peers checkpoint from
// parallel goroutines).
type Publisher struct {
	store *Store
	next  dprcore.Checkpointer

	mu      sync.Mutex
	scratch []float64
}

// NewPublisher wraps store as a Checkpointer. next, when non-nil,
// receives every snapshot afterwards — tee a MemCheckpointer or
// FileCheckpointer through so crash recovery keeps working alongside
// serving.
func NewPublisher(store *Store, next dprcore.Checkpointer) *Publisher {
	return &Publisher{store: store, next: next}
}

// Save implements dprcore.Checkpointer.
func (p *Publisher) Save(ranker int, round int64, data []byte) error {
	p.mu.Lock()
	group, _, ranks, err := dprcore.DecodeSnapshotRanks(data, p.scratch[:0])
	if err != nil {
		p.mu.Unlock()
		return fmt.Errorf("serve: publish ranker %d: %w", ranker, err)
	}
	p.scratch = ranks
	if group != ranker {
		p.mu.Unlock()
		return fmt.Errorf("serve: ranker %d checkpointed a snapshot of group %d", ranker, group)
	}
	_, err = p.store.Publish(ranker, round, ranks)
	p.mu.Unlock()
	if err != nil {
		return err
	}
	if p.next != nil {
		return p.next.Save(ranker, round, data)
	}
	return nil
}

// observer lets Tracker embed the wrapped telemetry.Observer as an
// unexported field, so every hook Tracker does not override forwards to
// it.
type observer = telemetry.Observer

// Tracker drives the Store's staleness accounting from the telemetry
// seam: install it as Params.Observer and every committed round ticks
// the ranker's shard one round staler, until the next publish resets
// it. Every hook also reaches the wrapped observer, so a collector can
// ride along.
type Tracker struct {
	observer
	store *Store

	maxStale atomic.Int64
}

// NewTracker wraps store as an Observer, forwarding every hook to next
// (nil for none).
func NewTracker(store *Store, next telemetry.Observer) *Tracker {
	if next == nil {
		next = telemetry.Noop{}
	}
	return &Tracker{observer: next, store: store}
}

// MaxObservedStaleness returns the largest staleness any shard reached
// at any point during the run — the monotone bound the churn tests
// assert against the checkpoint cadence.
func (t *Tracker) MaxObservedStaleness() int64 { return t.maxStale.Load() }

// SetClock forwards the runtime clock to the wrapped collector.
func (t *Tracker) SetClock(c telemetry.Clock) {
	if cs, ok := t.observer.(telemetry.ClockSetter); ok {
		cs.SetClock(c)
	}
}

// SetHops forwards the hop-attribution function to the wrapped
// collector.
func (t *Tracker) SetHops(h func(src, dst int) int) {
	if hs, ok := t.observer.(telemetry.HopsSetter); ok {
		hs.SetHops(h)
	}
}

// ComputeEnd implements telemetry.Observer: the commit that follows
// this compute phase makes the snapshot one round staler.
func (t *Tracker) ComputeEnd(ranker int, round int64, s telemetry.ComputeStats) {
	ticks := t.store.Advance(ranker)
	for {
		old := t.maxStale.Load()
		if ticks <= old || t.maxStale.CompareAndSwap(old, ticks) {
			break
		}
	}
	t.observer.ComputeEnd(ranker, round, s)
}
