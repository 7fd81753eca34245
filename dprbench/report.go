package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric. The two catalogs below are the
// end_to_end and per_layer lists of BENCHMARK.json (a test keeps them
// in step).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what an untraced run prints. Every workload reports all
// of them, so each is defined for ranking and serving alike. Both
// times are process CPU seconds: on a shared VM, hypervisor steal moves
// wall time by up to a third between runs minutes apart, while CPU time
// moves a few percent (see README.md). Wall times are printed beside
// them, ungated.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"work_cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// selfLayers are the layers the traced run attributes self time to.
var selfLayers = []string{"bench", "webgraph", "pagerank", "pastry", "partition", "dprcore",
	"solve", "engine", "codec", "serve", "netpeer", "http"}

// perLayer is what a traced run prints: the counters and busy times of
// each layer, the per-layer self time, and the tracing overhead.
// Counters and times are per unit: per set-up for the set-up layers,
// per unit of work for the rest (self time amortizes set-up over the
// units of work); ratios are over the whole run.
var perLayer = func() []layerDef {
	defs := []layerDef{
		{metricDef{"webgraph.generate_s", "s", "lower"}, perSetup},
		{metricDef{"webgraph.links", "count", "lower"}, perSetup},
		{metricDef{"pagerank.reference_s", "s", "lower"}, perSetup},
		{metricDef{"pastry.build_s", "s", "lower"}, perWork},
		{metricDef{"partition.assign_s", "s", "lower"}, perWork},
		{metricDef{"partition.cut_frac", "ratio", "lower"}, perWork},
		{metricDef{"dprcore.build_groups_s", "s", "lower"}, perWork},
		{metricDef{"dprcore.compute_phases", "count", "lower"}, perWork},
		{metricDef{"dprcore.compute_busy_s", "s", "lower"}, perWork},
		{metricDef{"dprcore.inner_iters", "count", "lower"}, perWork},
		{metricDef{"dprcore.x_entries", "count", "lower"}, perWork},
		{metricDef{"dprcore.idle_solve_ratio", "ratio", "lower"}, whole},
		{metricDef{"dprcore.chunks_sent", "count", "lower"}, perWork},
		{metricDef{"dprcore.chunk_entries", "count", "lower"}, perWork},
		{metricDef{"simnet.events", "count", "lower"}, perWork},
		{metricDef{"simnet.messages", "count", "lower"}, perWork},
		{metricDef{"simnet.dropped", "count", "lower"}, perWork},
		{metricDef{"transport.data_msgs", "count", "lower"}, perWork},
		{metricDef{"transport.data_bytes", "B", "lower"}, perWork},
		{metricDef{"transport.relayed_chunks", "count", "lower"}, perWork},
		{metricDef{"transport.lookup_msgs", "count", "lower"}, perWork},
		{metricDef{"codec.encode_calls", "count", "lower"}, perWork},
		{metricDef{"codec.decode_calls", "count", "lower"}, perWork},
		{metricDef{"codec.encode_busy_s", "s", "lower"}, perWork},
		{metricDef{"codec.decode_busy_s", "s", "lower"}, perWork},
		{metricDef{"codec.encoded_bytes", "B", "lower"}, perWork},
		{metricDef{"netpeer.loops", "count", "lower"}, perWork},
		{metricDef{"netpeer.chunks_sent", "count", "lower"}, perWork},
		{metricDef{"netpeer.chunks_relayed", "count", "lower"}, perWork},
		{metricDef{"serve.shards_per_query", "count", "lower"}, whole},
		{metricDef{"serve.hops_per_query", "count", "lower"}, whole},
		{metricDef{"serve.cache_hit_ratio", "ratio", "higher"}, whole},
		{metricDef{"serve.queue_wait_p99_us", "us", "lower"}, whole},
		{metricDef{"serve.shed", "count", "lower"}, perWork},
		{metricDef{"serve.unavailable", "count", "lower"}, perWork},
		{metricDef{"serve.degraded", "count", "lower"}, perWork},
		{metricDef{"serve.mean_coverage", "ratio", "higher"}, whole},
		{metricDef{"serve.publishes", "count", "lower"}, perWork},
		{metricDef{"serve.publish_busy_s", "s", "lower"}, perWork},
		{metricDef{"serve.max_staleness", "rounds", "lower"}, whole},
		{metricDef{"serve.http_errors", "count", "lower"}, perWork},
	}
	for _, l := range selfLayers {
		defs = append(defs, layerDef{metricDef{"self_s." + l, "s", "lower"}, perWork})
	}
	return append(defs, layerDef{metricDef{"trace.overhead_frac", "ratio", "lower"}, whole})
}()

// per says what a per-layer value is divided by before it is printed.
type per int

const (
	whole    per = iota // reported as set
	perSetup            // summed, then divided by the number of set-ups
	perWork             // summed, then divided by the number of units of work
)

type layerDef struct {
	metricDef
	per per
}

var layerIndex = func() map[string]layerDef {
	m := make(map[string]layerDef, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = d
	}
	return m
}()

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// check is one correctness assertion of a run.
type check struct {
	name   string
	ok     bool
	detail string
}

// figure is one line of the human-readable report: the workload's own
// end-to-end figures under the names the README's table uses.
type figure struct {
	name  string
	value float64
	unit  string
	note  string
}

// runCtx carries one run's settings and everything it measures.
type runCtx struct {
	seed    uint64
	seconds float64
	tr      *tracer // nil unless --trace 1
	log     io.Writer

	setups   []float64 // wall seconds per set-up
	setupCPU []float64 // process CPU seconds per set-up
	work     []float64 // wall seconds per unit of work
	workCPU  []float64 // process CPU seconds per unit of work

	attempted, failed int64
	checks            []check
	figures           []figure
	layers            map[string]float64

	dpr1Phases, idlePhases int64
	untracedWork           []float64 // traced runs: the untraced run's work times, for the overhead
}

func newRunCtx(seed uint64, seconds float64, traced bool, log io.Writer) *runCtx {
	c := &runCtx{seed: seed, seconds: seconds, log: log, layers: make(map[string]float64)}
	if traced {
		c.tr = newTracer()
	}
	return c
}

func (c *runCtx) traced() bool { return c.tr != nil }

// timeSetup runs one set-up in a bench/setup span and records its time.
// Like timeWork it starts from a collected heap, so the garbage of the
// step before is neither charged to this one nor left to decide when
// the peak resident set is reached.
func (c *runCtx) timeSetup(run int64, fn func(id int64) error) error {
	runtime.GC()
	start, cpu0 := time.Now(), cpuSeconds()
	err := c.tr.do("bench/setup", 0, run, fn)
	c.setups = append(c.setups, time.Since(start).Seconds())
	c.setupCPU = append(c.setupCPU, cpuSeconds()-cpu0)
	return err
}

// timeWork runs one unit of work in a bench/work span and records its
// time.
func (c *runCtx) timeWork(run int64, fn func(id int64) error) error {
	runtime.GC()
	start, cpu0 := time.Now(), cpuSeconds()
	err := c.tr.do("bench/work", 0, run, fn)
	c.work = append(c.work, time.Since(start).Seconds())
	c.workCPU = append(c.workCPU, cpuSeconds()-cpu0)
	return err
}

// timeCall runs fn in a span under parent and adds its duration to the
// per-layer time metric.
func (c *runCtx) timeCall(metric, name string, parent, run int64, fn func(id int64) error) error {
	start := time.Now()
	err := c.tr.do(name, parent, run, fn)
	c.addLayer(metric, time.Since(start).Seconds())
	return err
}

// baseline runs the whole workload on a fresh untraced context first
// and keeps its work times: the traced run's overhead is measured
// against them.
func (c *runCtx) baseline(run func(*runCtx) error) error {
	sub := newRunCtx(c.seed, c.seconds, false, io.Discard)
	if err := run(sub); err != nil {
		return err
	}
	c.untracedWork = sub.work
	return nil
}

// more reports whether a repeat loop should run rep: always below
// minReps, then while the run's --seconds have not yet elapsed.
func (c *runCtx) more(rep, minReps int, began time.Time) bool {
	return rep < minReps || time.Since(began).Seconds() < c.seconds
}

func (c *runCtx) check(name string, ok bool, format string, args ...any) {
	c.checks = append(c.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (c *runCtx) figure(name string, value float64, unit, note string) {
	c.figures = append(c.figures, figure{name, value, unit, note})
}

func (c *runCtx) addLayer(name string, v float64) {
	if !knownLayerMetric(name) {
		panic("dprbench: unknown per-layer metric " + name)
	}
	c.layers[name] += v
}

func (c *runCtx) setLayer(name string, v float64) {
	c.addLayer(name, v-c.layers[name])
}

func knownLayerMetric(name string) bool {
	_, ok := layerIndex[name]
	return ok
}

// finish assembles the result line. Untraced runs report the
// end-to-end catalog, traced runs the per-layer one (a layer the
// workload does not exercise reads 0).
func (c *runCtx) finish() result {
	res := result{Correct: true, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metricValue{}}
	for _, ch := range c.checks {
		res.Correct = res.Correct && ch.ok
	}
	if !c.traced() {
		vals := map[string]float64{
			"setup_s":     median(c.setupCPU),
			"work_cpu_s":  median(c.workCPU),
			"peak_rss_mb": peakRSSMB(),
		}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
		}
		return res
	}
	if c.dpr1Phases > 0 {
		c.setLayer("dprcore.idle_solve_ratio", float64(c.idlePhases)/float64(c.dpr1Phases))
	}
	self := selfTimes(c.tr.spans, c.tr.busy)
	for _, l := range selfLayers {
		c.setLayer("self_s."+l, self[l])
	}
	if len(c.untracedWork) > 0 && len(c.work) > 0 {
		c.setLayer("trace.overhead_frac", median(c.work)/median(c.untracedWork)-1)
	}
	for _, d := range perLayer {
		v := c.layers[d.Name]
		switch {
		case d.per == perSetup && len(c.setups) > 0:
			v /= float64(len(c.setups))
		case d.per == perWork && len(c.work) > 0:
			v /= float64(len(c.work))
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return res
}

// writeReport prints the human-readable part of a run: environment,
// checks, the workload's figures, and (traced) the per-layer table.
func (c *runCtx) writeReport(w io.Writer, workload string, res result) {
	fmt.Fprintf(w, "# dprbench %s  %s\n", workload, envStamp(c.seed))
	for _, ch := range c.checks {
		status := "ok  "
		if !ch.ok {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check %s %s: %s\n", status, ch.name, ch.detail)
	}
	for _, f := range c.figures {
		fmt.Fprintf(w, "%-20s %14s %-8s %s\n", f.name, formatValue(f.value), f.unit, f.note)
	}
	fmt.Fprintf(w, "set-up wall %s s, CPU %s s\n", formatList(c.setups), formatList(c.setupCPU))
	fmt.Fprintf(w, "work wall %s s, CPU %s s\n", formatList(c.work), formatList(c.workCPU))
	if c.traced() {
		fmt.Fprint(w, layerTable(selfTimes(c.tr.spans, c.tr.busy)))
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "metric %-28s %14s %s\n", n, formatValue(m.Value), m.Unit)
	}
}

func formatValue(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fmt.Sprint(v)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

func formatList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// encodeResult renders the result as one JSON line. Non-finite values
// cannot be encoded and are an error.
func encodeResult(res result) ([]byte, error) {
	for n, m := range res.Metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			return nil, fmt.Errorf("metric %s is %v", n, m.Value)
		}
	}
	return json.Marshal(res)
}

// envStamp records what the numbers were measured on.
func envStamp(seed uint64) string {
	return fmt.Sprintf("seed=%d go=%s GOMAXPROCS=%d nproc=%d cpu=%q",
		seed, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// cpuSeconds is the CPU time (user + system) the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
