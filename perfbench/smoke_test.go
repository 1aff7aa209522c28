package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestSmoke runs every workload at toy size, untraced and traced, with
// every oracle.
func TestSmoke(t *testing.T) {
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	var out, errs bytes.Buffer
	if code := run([]string{"--smoke"}, &out, &errs); code != 0 {
		t.Fatalf("smoke exited %d:\n%s%s", code, out.String(), errs.String())
	}
	if got := strings.Count(out.String(), ": ok,"); got != 2*len(workloads) {
		t.Fatalf("%d smoke runs passed, want %d:\n%s", got, 2*len(workloads), out.String())
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// workloads and metrics this program prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i])
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to values printed by Python's
// statistics.quantiles(sorted(v), n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct{ v, want []float64 }{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
		{[]float64{1.5, 2, 3, 7, 9}, []float64{1.75, 3, 8}},
		{[]float64{1, 5}, []float64{0, 3, 6}},
	} {
		if q1, med, q3 := quartiles(c.v); q1 != c.want[0] || med != c.want[1] || q3 != c.want[2] {
			t.Errorf("quartiles(%v) = %g %g %g, want %v", c.v, q1, med, q3, c.want)
		}
	}
}
