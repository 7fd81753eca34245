package netpeer

import (
	"net"
	"sync"
	"testing"
	"time"

	"p2prank/internal/dprcore"
)

// TestStressPeerStopUnderLoad is the CI race-detector stress test: a
// cluster ranks under indirect transmission (so peers relay each
// other's frames, the concurrency-heavy path), a reader goroutine
// hammers the snapshot APIs, one peer is torn down mid-run, and the
// survivors must keep iterating and still drive the global error down.
// Run it under -race; its value is the interleavings it provokes, not
// the final numbers.
func TestStressPeerStopUnderLoad(t *testing.T) {
	g := genGraph(t, 900, 11)
	cl, err := StartCluster(g, ClusterConfig{
		Params:   dprcore.Params{Alg: dprcore.DPR1},
		K:        5,
		MeanWait: 5 * time.Millisecond,
		Indirect: true,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Reader goroutine: concurrent snapshots race against the rank
	// loops and read loops of every peer.
	stopReads := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stopReads:
				return
			default:
			}
			for _, p := range cl.Peers {
				_ = p.Ranks()
				_ = p.Loops()
				_ = p.ChunksSent()
				_ = p.ChunksRelayed()
			}
			_ = cl.RelErr()
		}
	}()

	// Let traffic build up, then kill a middle peer while its relays
	// are in flight.
	time.Sleep(150 * time.Millisecond)
	errBefore := cl.RelErr()
	if err := cl.Peers[2].Close(); err != nil {
		t.Fatalf("closing peer 2: %v", err)
	}

	loopsBefore := make([]int64, len(cl.Peers))
	for i, p := range cl.Peers {
		loopsBefore[i] = p.Loops()
	}
	time.Sleep(400 * time.Millisecond)
	close(stopReads)
	readers.Wait()

	for i, p := range cl.Peers {
		if i == 2 {
			continue
		}
		if p.Loops() <= loopsBefore[i] {
			t.Errorf("peer %d stalled after peer 2 stopped", i)
		}
	}
	// Convergence proper is asserted by the functional tests; here the
	// survivors only need to have kept making progress toward R*
	// without the dead relay.
	if errAfter := cl.RelErr(); errAfter > errBefore {
		t.Errorf("relative error rose after peer stop: %v -> %v", errBefore, errAfter)
	}
}

// TestStressCloseDuringDial tears clusters down immediately after
// start, racing Close against lazy dials, accept loops, and the first
// rank iterations.
func TestStressCloseDuringDial(t *testing.T) {
	g := genGraph(t, 400, 13)
	for i := 0; i < 3; i++ {
		cl, err := StartCluster(g, ClusterConfig{
			Params:   dprcore.Params{Alg: dprcore.DPR2},
			K:        4,
			MeanWait: time.Millisecond,
			Seed:     uint64(17 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(i*10) * time.Millisecond)
		cl.Close()
	}
}

// TestStressCloseDuringInboundDial races Close against inbound
// connections. Dialers keep connecting, and hold every connection open
// until Close has returned, the way a cluster's other peers do while
// Cluster.Close shuts the peers down one after another. A connection
// accepted just as Close swept the accepted set must still be closed
// by the peer, or its read loop blocks Close forever.
func TestStressCloseDuringInboundDial(t *testing.T) {
	g := genGraph(t, 200, 23)
	cl, err := StartCluster(g, ClusterConfig{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	grp := cl.Peers[0].cfg.Group
	cl.Close()
	for i := 0; i < 100; i++ {
		p, err := Listen("127.0.0.1:0", Config{Group: grp})
		if err != nil {
			t.Fatal(err)
		}
		addr := p.Addr()
		// Close starts once the dialers hold want connections, so the
		// rounds race it against different points of the dial storm.
		want := 1 + i%5
		var mu sync.Mutex
		var held []net.Conn
		ready := make(chan struct{})
		stop := make(chan struct{})
		var dialers sync.WaitGroup
		for d := 0; d < 4; d++ {
			dialers.Add(1)
			go func() {
				defer dialers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					c, err := net.Dial("tcp", addr)
					if err != nil {
						continue // listener already closed
					}
					mu.Lock()
					held = append(held, c)
					if len(held) == want {
						close(ready)
					}
					mu.Unlock()
				}
			}()
		}
		<-ready
		closed := make(chan struct{})
		go func() {
			p.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Errorf("round %d: Close hung on an inbound connection", i)
		}
		close(stop)
		dialers.Wait()
		for _, c := range held {
			c.Close()
		}
		<-closed
		if t.Failed() {
			return
		}
	}
}
