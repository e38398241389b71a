package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json, the benchmark's
// declaration at the repository root, to metrics.json, which this
// program prints from and which also records each metric's layer, the
// end-to-end metric it should move and its baseline.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
		Why    string   `json:"why"`
	}
	type doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	read := func(path string) doc {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var d doc
		if err := json.Unmarshal(b, &d); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return d
	}
	bench, metrics := read("../BENCHMARK.json"), read("metrics.json")
	if !reflect.DeepEqual(bench, metrics) {
		t.Errorf("BENCHMARK.json and metrics.json disagree on workloads or metrics")
	}
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	var listed []string
	for _, w := range bench.Workloads {
		listed = append(listed, w.Name)
	}
	if !reflect.DeepEqual(names, listed) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", names, listed)
	}
}

func TestSummarize(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	got := summarize(s)
	if got.median != 50.5 || got.tail != 90 || got.n != 100 {
		t.Errorf("summarize(1..100) = %+v, want median 50.5, tail 90, n 100", got)
	}
	if got := summarize(s[:10]); got.tail != 0 {
		t.Errorf("summarize of 10 samples has tail %v, want 0", got.tail)
	}
}

func TestSelfSeconds(t *testing.T) {
	spans := []span{
		{Name: "setup.x", Start: 0, End: 5, Parent: -1},
		{Name: "exp.run", Start: 10, End: 40, Parent: -1},
		{Name: "memctrl.hammer", Start: 12, End: 22, Parent: 1},
		{Name: "snapshot.load", Start: 25, End: 30, Parent: 1},
	}
	got := selfSeconds(spans, 1)
	want := map[string]float64{"exp": 15e-9, "memctrl": 10e-9, "snapshot": 5e-9}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfSeconds = %v, want %v", got, want)
	}
	if top := topSeconds(spans[1:]); top != 30e-9 {
		t.Errorf("topSeconds = %v, want 3e-8", top)
	}
}
