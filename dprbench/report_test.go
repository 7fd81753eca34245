package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNamesAreValid(t *testing.T) {
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ starting with a letter or digit, <= 64 long", d.Name)
		}
		if !unitPattern.MatchString(d.Unit) {
			t.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		check(d)
	}
	for _, d := range perLayer {
		check(d.metricDef)
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) {
			t.Errorf("workload name %q is invalid", w.name)
		}
	}
	if metricName.MatchString("bad name") || metricName.MatchString(".lead") || metricName.MatchString("") {
		t.Error("the name pattern accepts invalid names")
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the code's metric and workload
// lists identical to the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(specNames, ",") {
		t.Errorf("workloads %v, BENCHMARK.json %v", names, specNames)
	}
	if !equalDefs(endToEnd, spec.EndToEnd) {
		t.Errorf("end_to_end differs from BENCHMARK.json")
	}
	var layers []metricDef
	for _, d := range perLayer {
		layers = append(layers, d.metricDef)
	}
	if !equalDefs(layers, spec.PerLayer) {
		t.Errorf("per_layer differs from BENCHMARK.json")
	}
}

func equalDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkShape decodes a result line and checks it against the output
// contract: exactly four keys, every metric an object of value and
// unit, and exactly the wanted metric names.
func checkShape(t *testing.T, line []byte, want []string) {
	t.Helper()
	var top map[string]json.RawMessage
	if err := json.Unmarshal(line, &top); err != nil {
		t.Fatalf("result is not a JSON object: %v\n%s", err, line)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("result keys = %v", keys)
	}
	var metrics map[string]map[string]json.RawMessage
	if err := json.Unmarshal(top["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	var got []string
	for name, m := range metrics {
		got = append(got, name)
		var v float64
		var u string
		if len(m) != 2 || json.Unmarshal(m["value"], &v) != nil || json.Unmarshal(m["unit"], &u) != nil {
			t.Errorf("metric %s = %v, want {value: number, unit: string}", name, m)
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("metrics %v, want %v", got, want)
	}
	var attempted, failed int64
	if json.Unmarshal(top["attempted"], &attempted) != nil || json.Unmarshal(top["failed"], &failed) != nil || attempted < 1 {
		t.Errorf("attempted %s failed %s: want whole numbers, attempted >= 1", top["attempted"], top["failed"])
	}
}

func TestResultShapeUntraced(t *testing.T) {
	c := newRunCtx(1, 1, false, io.Discard)
	c.setups = []float64{9, 9, 9}
	c.setupCPU = []float64{0.5, 0.7, 0.6}
	c.work = []float64{9, 9}
	c.workCPU = []float64{2, 3}
	c.attempted = 2
	c.check("always", true, "")
	res := c.finish()
	if !res.Correct || res.Metrics["setup_s"].Value != 0.6 || res.Metrics["work_cpu_s"].Value != 2.5 {
		t.Errorf("result = %+v", res)
	}
	line, err := encodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, d := range endToEnd {
		want = append(want, d.Name)
	}
	checkShape(t, line, want)
}

func TestResultShapeTracedNormalizesPerUnit(t *testing.T) {
	c := newRunCtx(1, 1, true, io.Discard)
	c.setups = []float64{1, 1}
	c.work = []float64{1, 1, 1, 1}
	c.attempted = 4
	c.addLayer("webgraph.links", 10) // per set-up
	c.addLayer("simnet.events", 400) // per unit of work
	c.setLayer("serve.cache_hit_ratio", 0.5)
	c.check("fails", false, "")
	res := c.finish()
	if res.Correct {
		t.Error("a failed check left the result correct")
	}
	if res.Metrics["webgraph.links"].Value != 5 || res.Metrics["simnet.events"].Value != 100 || res.Metrics["serve.cache_hit_ratio"].Value != 0.5 {
		t.Errorf("normalization wrong: %v %v %v", res.Metrics["webgraph.links"], res.Metrics["simnet.events"], res.Metrics["serve.cache_hit_ratio"])
	}
	line, err := encodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, d := range perLayer {
		want = append(want, d.Name)
	}
	checkShape(t, line, want)
}

func TestEncodeRejectsNonFinite(t *testing.T) {
	res := result{Attempted: 1, Metrics: map[string]metricValue{"x": {math.Inf(1), "s"}}}
	if _, err := encodeResult(res); err == nil {
		t.Error("an infinite metric was encoded")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1"},
		{"--workload", "scale", "--seed", "0"},
		{"--workload", "scale", "--seed", "1", "--trace", "2"},
		{"--workload", "scale", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want 2 and no result", args, code, out.String())
		}
	}
}
