package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

func TestMetricNamesValid(t *testing.T) {
	seen := map[string]bool{}
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range specs {
			if !validName(s.name) {
				t.Errorf("metric name %q is not 1-64 of letters, digits, _ . - starting alphanumerically", s.name)
			}
			if seen[s.name] {
				t.Errorf("metric name %q used twice", s.name)
			}
			seen[s.name] = true
			if s.unit == "" || len(s.unit) > 16 {
				t.Errorf("metric %q has unit %q", s.name, s.unit)
			}
		}
	}
	for name := range workloads {
		if !validName(name) {
			t.Errorf("workload name %q invalid", name)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "é", string(make([]byte, 65))} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

func names(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func specNames(specs []metricSpec) []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
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

// TestWorkloadsEmitExactlyTheirMetrics builds each workload's untraced
// and traced metric sets from a representative measurement and checks
// they are exactly the named end-to-end and per-layer metrics.
func TestWorkloadsEmitExactlyTheirMetrics(t *testing.T) {
	st := opStats{n: 10, p50: time.Millisecond, p90: time.Millisecond, p99: 2 * time.Millisecond, perSecond: 5}
	res := &windowResult{fg: st, updates: st, ops: 10}
	selfs := map[string][]time.Duration{"wal.commit": {time.Microsecond}}
	for name, wl := range workloads {
		m, err := e2eMetrics(res, 0.2, 60, 1.5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := names(m), specNames(endToEnd); !equalStrings(got, want) {
			t.Errorf("%s end-to-end metrics %v, want %v", name, got, want)
		}
		lm, err := layerMetrics(wl, &ladder{}, &serveRung{}, res, res, selfs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := names(lm), specNames(perLayer); !equalStrings(got, want) {
			t.Errorf("%s per-layer metrics %v, want %v", name, got, want)
		}
		for _, s := range perLayer {
			if lm[s.name].Unit != s.unit {
				t.Errorf("%s: %s unit %q, want %q", name, s.name, lm[s.name].Unit, s.unit)
			}
		}
	}
	if _, err := build(endToEnd, map[string]float64{"p50_ms": 1}); err == nil {
		t.Error("build accepted a partial metric set")
	}
}

// TestBenchmarkJSONInStep checks the repository's BENCHMARK.json names
// exactly this program's workloads and metrics, with the same units.
func TestBenchmarkJSONInStep(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range b.Workloads {
		wls = append(wls, w.Name)
	}
	sort.Strings(wls)
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(want)
	if !equalStrings(wls, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", wls, want)
	}
	check := func(kind string, specs []metricSpec, got map[string]string) {
		if len(got) != len(specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(specs))
		}
		for _, s := range specs {
			if u, ok := got[s.name]; !ok || u != s.unit {
				t.Errorf("%s: %s is %q in BENCHMARK.json, want unit %q", kind, s.name, u, s.unit)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, e2e)
	pl := map[string]string{}
	for _, m := range b.PerLayer {
		pl[m.Name] = m.Unit
	}
	check("per_layer", perLayer, pl)
}

func TestMovesCoversEveryLayerMetric(t *testing.T) {
	for _, s := range perLayer {
		if moves(s.name) == "" && s.name[:6] != "trace." {
			t.Errorf("per-layer metric %s names no end-to-end metric it moves", s.name)
		}
	}
}
