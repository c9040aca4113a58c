package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestWorkloadsReportEveryMetric runs each workload at smoke-test size,
// untraced and traced, and checks the result line: every listed metric
// present with its unit, nothing else, and no failed operation.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, wl := range []string{"campaign", "dist", "serve"} {
		for _, trace := range []string{"0", "1"} {
			wl, trace := wl, trace
			t.Run(wl+"/trace="+trace, func(t *testing.T) {
				var stdout bytes.Buffer
				args := []string{"-workload", wl, "-seed", "3", "-seconds", "1",
					"-trace", trace, "-tiny", "-workdir", t.TempDir()}
				if err := run(context.Background(), args, &stdout); err != nil {
					t.Fatalf("run %v: %v", args, err)
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				specs := endToEnd
				if trace == "1" {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", s.name)
					case m.Unit != s.unit:
						t.Errorf("metric %s has unit %q, want %q", s.name, m.Unit, s.unit)
					case trace == "0" && !(m.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", s.name, m.Value)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's metric lists
// and the program's in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not in the program", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	check := func(list string, got []entry, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", list, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					list, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
