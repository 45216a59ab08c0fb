package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	for _, d := range append(append(append([]metricDef(nil), endToEnd...), reportedOnly...), perLayer...) {
		if !valid.MatchString(d.name) || len(d.name) > 64 {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]{1,64}", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
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
	for _, c := range []struct {
		kind string
		defs []metricDef
		spec []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.defs) != len(c.spec) {
			t.Errorf("%s: %d metrics in the command, %d in BENCHMARK.json", c.kind, len(c.defs), len(c.spec))
			continue
		}
		for i, d := range c.defs {
			if d.name != c.spec[i].Name || d.unit != c.spec[i].Unit {
				t.Errorf("%s[%d]: command has %s (%s), BENCHMARK.json %s (%s)",
					c.kind, i, d.name, d.unit, c.spec[i].Name, c.spec[i].Unit)
			}
		}
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
}
