package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// BENCHMARK.json must describe exactly what the harness prints.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not registered", w.Name)
		}
	}
	sort.Strings(names)
	if got := workloadNames(); len(got) != len(names) {
		t.Errorf("registered workloads %v, BENCHMARK.json lists %v", got, names)
	}
	if len(bj.EndToEnd) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the harness prints %d", len(bj.EndToEnd), len(endToEndUnits))
	}
	for _, m := range bj.EndToEnd {
		if u, ok := endToEndUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("end-to-end metric %s [%s]: harness prints unit %q", m.Name, m.Unit, u)
		}
	}
	if len(bj.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness prints %d", len(bj.PerLayer), len(perLayerMetrics))
	}
	for i, m := range bj.PerLayer {
		if want := perLayerMetrics[i]; m.Name != want.name || m.Unit != want.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], harness %s [%s]", i, m.Name, m.Unit, want.name, want.unit)
		}
	}
}
