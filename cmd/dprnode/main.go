// Command dprnode runs page rankers as real TCP peers.
//
// Demo mode starts a whole cluster in one process and reports
// convergence against centralized PageRank:
//
//	dprnode -demo -pages 5000 -k 4
//
// Distributed mode runs one ranker per process; every process loads the
// same crawl and derives the same partition, so only addresses need
// coordinating:
//
//	dprnode -graph crawl.bin -k 3 -index 0 -listen :7000 \
//	        -peers 1=host1:7000,2=host2:7000
//
// Both modes accept -transport indirect (route score frames hop-by-hop
// along the Pastry overlay, §4.4), -codec (wire encoding: gob, plain,
// delta, or quantized-N for N mantissa bits), -fault (injected message
// faults), -reliable (ack/retry/backoff delivery — pair it with -fault
// to ride out real loss), and -obs addr:port, which serves live
// telemetry over HTTP:
// Prometheus text on /metrics, the JSONL event trace on /trace, and
// pprof under /debug/pprof/. SIGQUIT dumps the trace ring to stderr.
//
// Demo mode with -serve adds the query tier (HTTP /search over the
// published ranks). A serving demo does not end at -target: it reports
// convergence, then keeps ranking and serving until SIGINT or SIGTERM.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"p2prank/internal/cliflags"
	"p2prank/internal/core"
	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/netpeer"
	"p2prank/internal/partition"
	"p2prank/internal/search"
	"p2prank/internal/serve"
	"p2prank/internal/telemetry"
	"p2prank/internal/transport"
	"p2prank/internal/webgraph"
)

func main() {
	var (
		demo      = flag.Bool("demo", false, "run a whole cluster in-process on localhost")
		pages     = flag.Int("pages", 5000, "crawl size for -demo")
		graphPath = flag.String("graph", "", "crawl file (required without -demo)")
		k         = flag.Int("k", 4, "number of rankers")
		index     = flag.Int("index", 0, "this ranker's index (0..k-1)")
		listen    = flag.String("listen", "127.0.0.1:0", "listen address")
		peersFlag = flag.String("peers", "", "peer addresses as idx=host:port, comma separated")
		target    = flag.Float64("target", 1e-6, "demo: stop at this relative error (with -serve: report it and keep serving)")
		obsAddr   = flag.String("obs", "", "serve telemetry over HTTP on this addr:port (empty = off)")

		algName   = cliflags.Algorithm(flag.CommandLine)
		codecName = cliflags.Codec(flag.CommandLine)
		faultSpec = cliflags.Fault(flag.CommandLine)
		relSpec   = cliflags.Reliable(flag.CommandLine)
		transName = cliflags.Transport(flag.CommandLine)
		seed      = cliflags.Seed(flag.CommandLine)
		srvAddr   = cliflags.ServeAddr(flag.CommandLine)
		qps       = cliflags.QPS(flag.CommandLine)
		topk      = cliflags.TopK(flag.CommandLine)
	)
	flag.Parse()

	if *srvAddr == "" && *qps > 0 {
		fatal(fmt.Errorf("-qps requires -serve"))
	}
	if *srvAddr != "" && !*demo {
		fatal(fmt.Errorf("-serve requires -demo (distributed serving needs every shard in one query tier)"))
	}

	algorithm, err := cliflags.ParseAlgorithm(*algName)
	if err != nil {
		fatal(err)
	}
	wire, err := cliflags.ParseCodec(*codecName)
	if err != nil {
		fatal(err)
	}
	fault, err := cliflags.ParseFault(*faultSpec)
	if err != nil {
		fatal(err)
	}
	if fault.Enabled() && fault.MeanDelay > 0 && fault.MeanDelay < float64(time.Millisecond) {
		// The shared -fault spec is unit-agnostic; live peers run on
		// nanoseconds, where the spec's small virtual-unit delays round
		// to nothing. Interpret small meandelay values as milliseconds.
		fault.MeanDelay *= float64(time.Millisecond)
	}
	if fault.PartitionFrac > 0 && fault.PartitionTo < float64(time.Millisecond) {
		// Partition windows get the same bridge; the -pto default
		// (MaxFloat64, "never heals") is already past the threshold.
		fault.PartitionFrom *= float64(time.Millisecond)
		fault.PartitionTo *= float64(time.Millisecond)
	}
	if fault.StraggleFrac > 0 && fault.StraggleFactor > 0 && fault.StraggleFactor < float64(time.Millisecond) {
		fault.StraggleFactor *= float64(time.Millisecond)
	}
	reliable, err := cliflags.ParseReliable(*relSpec)
	if err != nil {
		fatal(err)
	}
	if reliable.Enabled() && reliable.Timeout < float64(time.Millisecond) {
		// Same unit bridge as -fault: the shared spec's small values are
		// meant as milliseconds on the nanosecond-clock live peers.
		reliable.Timeout *= float64(time.Millisecond)
		reliable.MaxTimeout *= float64(time.Millisecond)
		reliable.Cooldown *= float64(time.Millisecond)
	}
	indirect, err := cliflags.ParseTransport(*transName)
	if err != nil {
		fatal(err)
	}

	// -obs: one live collector shared by every ranker this process
	// hosts, served over HTTP and dumpable via SIGQUIT.
	var col *telemetry.LiveCollector
	if *obsAddr != "" {
		col = telemetry.NewLiveCollector(*k)
		srv, err := telemetry.Serve(*obsAddr, col)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("observability: %s (/metrics, /trace, /debug/pprof/)\n", srv.URL())
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			for range quit {
				fmt.Fprintln(os.Stderr, "-- telemetry trace --")
				if err := col.DumpTrace(os.Stderr); err != nil {
					fmt.Fprintln(os.Stderr, "dprnode: trace dump:", err)
				}
			}
		}()
	}

	params := dprcore.Params{Alg: algorithm, Fault: fault, Reliable: reliable}
	if col != nil {
		params.Observer = col
	}
	// -serve: the peers' ComputeEnd hooks drive the staleness clock via
	// a Tracker wrapped around whatever observer is already installed.
	var store *serve.Store
	if *srvAddr != "" {
		var err error
		store, err = serve.NewStore(*k)
		if err != nil {
			fatal(err)
		}
		params.Observer = serve.NewTracker(store, params.Observer)
	}
	if *demo {
		runDemo(*pages, *k, params, *target, *seed, indirect, wire, col,
			store, *srvAddr, *qps, *topk)
		return
	}
	runPeer(*graphPath, *k, *index, *listen, *peersFlag, params, *seed, indirect, wire)
}

func runDemo(pages, k int, params dprcore.Params, target float64, seed uint64, indirect bool, wire transport.ChunkCodec, col *telemetry.LiveCollector, store *serve.Store, srvAddr string, qps, topk int) {
	g, err := core.GenerateCrawl(pages, seed)
	if err != nil {
		fatal(err)
	}
	mode := "direct"
	if indirect {
		mode = "indirect"
	}
	fmt.Printf("demo: %d pages, %d rankers (%v, %s transmission), real TCP on localhost\n",
		pages, k, params.Alg, mode)
	epoch := time.Now() // ≈ the peers' fault-injector epochs (set at construction)
	cl, err := netpeer.StartCluster(g, netpeer.ClusterConfig{
		Params: params,
		K:      k, MeanWait: 20 * time.Millisecond, Seed: seed,
		Indirect: indirect, Codec: wire,
	})
	if err != nil {
		fatal(err)
	}
	defer cl.Close()
	// -serve: the query tier outlives convergence — the cluster keeps
	// ranking and the tier keeps serving until SIGINT or SIGTERM, which
	// stop both cleanly. Without -serve the demo ends at -target. A nil
	// sig never fires.
	var sig chan os.Signal
	var served *int64
	if store != nil {
		sig = make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		stopServe, counter, err := startServing(cl, g, k, store, col, srvAddr, qps, topk, params.Fault, seed, epoch)
		if err != nil {
			fatal(err)
		}
		defer func() {
			stopServe()
			fmt.Printf("served %d load-gen queries, max served staleness %d rounds\n",
				atomic.LoadInt64(served), store.MaxStaleness())
		}()
		served = counter
	}
	start := time.Now()
	for {
		re := cl.RelErr()
		fmt.Printf("t=%6.2fs relative error %.3e\n", time.Since(start).Seconds(), re)
		if col != nil {
			col.Milestone(telemetry.Milestone{
				Time: time.Since(start).Seconds(), RelErr: re, Converged: re <= target,
			})
		}
		if re <= target {
			break
		}
		if time.Since(start) > 2*time.Minute {
			fatal(fmt.Errorf("did not reach %v within 2 minutes", target))
		}
		select {
		case <-sig:
			fmt.Println("interrupted before convergence; shutting down")
			return
		case <-time.After(300 * time.Millisecond):
		}
	}
	ranks := cl.Assemble()
	fmt.Printf("converged to relative error ≤ %v in %.2fs\n", target, time.Since(start).Seconds())
	fmt.Println("top pages:")
	for _, p := range core.TopPages(ranks, 5) {
		fmt.Printf("  %-40s rank %.4f\n", g.URL(int32(p)), ranks[p])
	}
	if sig != nil {
		fmt.Println("ranking and serving until interrupted")
		<-sig
		fmt.Println("shutting down")
	}
}

// startServing exposes the demo cluster's ranks as a query tier: a
// publisher goroutine polls each live peer's local rank vector into the
// snapshot store, the serve.Handler answers /search on srvAddr, and an
// optional internal load generator (-qps) drives the merged read path,
// reporting per-query latency and staleness to the live collector. When
// -fault injects partitions or stragglers, the frontend shares the
// peers' lattice so its fan-outs route around the cut. The returned
// func stops all of it; the int64 counts load-gen queries.
func startServing(cl *netpeer.Cluster, g webgraph.Store, k int, store *serve.Store, col *telemetry.LiveCollector, addr string, qps, topk int, fault dprcore.FaultConfig, seed uint64, epoch time.Time) (func(), *int64, error) {
	var tel serve.Telemetry
	if col != nil {
		tel = col
	}
	store.SetTelemetry(tel)
	// Same deterministic ranker IDs as StartCluster, so the overlay's
	// hop accounting matches the cluster the shards live on.
	ov, err := engine.BuildOverlay(engine.Pastry, k)
	if err != nil {
		return nil, nil, err
	}
	cfg := serve.Config{}
	if fault.PartitionFrac > 0 || fault.StraggleFrac > 0 {
		// The same seed defaulting StartCluster applies per peer, so the
		// frontend sees the exact cut the injectors enforce.
		if fault.Seed == 0 {
			fault.Seed = seed
			if fault.Seed == 0 {
				fault.Seed = 1
			}
		}
		at := 0
		for at < k && fault.PartitionMinority(at) {
			at++
		}
		health, err := serve.NewLatticeHealth(fault, at, func() float64 {
			return float64(time.Since(epoch))
		})
		if err != nil {
			return nil, nil, err
		}
		cfg.Health = health
	}
	fe, err := serve.NewFrontend(g, ov, cl.Assignment, store, cfg)
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // snapshot publisher: one goroutine, so per-shard publishes stay serialized
		defer wg.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			for s := 0; s < k; s++ {
				p := cl.Peer(s)
				if p == nil || !p.Alive() {
					continue
				}
				if _, err := store.Publish(s, p.Loops(), p.Ranks()); err != nil {
					fmt.Fprintln(os.Stderr, "dprnode: publish:", err)
				}
			}
		}
	}()
	srv := &http.Server{Handler: serve.NewHandler(fe, topk, tel).Mux()}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "dprnode: serve:", err)
		}
	}()
	fmt.Printf("serving: http://%s/search?terms=0,1&k=%d\n", ln.Addr(), topk)
	served := new(int64)
	if qps > 0 {
		wg.Add(1)
		go func() { // load generator
			defer wg.Done()
			q := fe.NewQuerier()
			var resp search.Response
			queries := [][]int32{{0}, {1, 2}, {0, 3}, {2, 4, 5}}
			interval := time.Duration(float64(time.Second) / float64(qps))
			next := time.Now()
			for i := 0; ; i++ {
				next = next.Add(interval)
				if d := time.Until(next); d > 0 {
					select {
					case <-stop:
						return
					case <-time.After(d):
					}
				} else {
					select {
					case <-stop:
						return
					default:
					}
				}
				t0 := time.Now()
				err := q.Serve(search.Request{Terms: queries[i%len(queries)], K: topk}, &resp)
				if err != nil {
					continue // before the first publish the store is stale by definition
				}
				atomic.AddInt64(served, 1)
				if col != nil {
					col.QueryServed(time.Since(t0).Seconds(), resp.Staleness)
				}
			}
		}()
	}
	return func() {
		close(stop)
		srv.Close()
		wg.Wait()
	}, served, nil
}

func runPeer(graphPath string, k, index int, listen, peersFlag string, params dprcore.Params, seed uint64, indirect bool, wire transport.ChunkCodec) {
	if graphPath == "" {
		fatal(fmt.Errorf("-graph is required (or use -demo)"))
	}
	if index < 0 || index >= k {
		fatal(fmt.Errorf("index %d out of range for k=%d", index, k))
	}
	g, err := core.OpenCrawl(graphPath)
	if err != nil {
		fatal(err)
	}
	defer g.Close()
	// The same deterministic ranker IDs the engine uses, so independent
	// processes agree on the partition.
	ov, err := engine.BuildOverlay(engine.Pastry, k)
	if err != nil {
		fatal(err)
	}
	assign, err := partition.Assign(g, ov, partition.BySite, seed)
	if err != nil {
		fatal(err)
	}
	groups, err := dprcore.BuildGroups(g, assign, 0.85)
	if err != nil {
		fatal(err)
	}
	pcfg := netpeer.Config{
		Params:   params,
		Group:    groups[index],
		MeanWait: 50 * time.Millisecond,
		Seed:     seed + uint64(index)*7919,
		Codec:    wire,
	}
	if indirect {
		// All processes build the same overlay from the same ranker IDs,
		// so routes agree without coordination.
		pcfg.Overlay = ov
	}
	peer, err := netpeer.Listen(listen, pcfg)
	if err != nil {
		fatal(err)
	}
	defer peer.Close()
	if peersFlag != "" {
		for _, part := range strings.Split(peersFlag, ",") {
			kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
			if len(kv) != 2 {
				fatal(fmt.Errorf("bad -peers entry %q", part))
			}
			idx, err := strconv.Atoi(kv[0])
			if err != nil {
				fatal(fmt.Errorf("bad -peers index %q: %w", kv[0], err))
			}
			peer.SetPeer(int32(idx), kv[1])
		}
	}
	peer.Start()
	fmt.Printf("ranker %d/%d listening on %s (%d pages, %v)\n",
		index, k, peer.Addr(), groups[index].N(), params.Alg)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	tick := time.NewTicker(5 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-sig:
			fmt.Println("shutting down")
			return
		case <-tick.C:
			r := peer.Ranks()
			fmt.Printf("loops=%d chunks_sent=%d local_rank_sum=%.3f\n",
				peer.Loops(), peer.ChunksSent(), r.Sum())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dprnode:", err)
	os.Exit(1)
}
