package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchSchema is BENCHMARK.json as the self-tests read it.
type benchSchema struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSchema(t *testing.T) benchSchema {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSchema
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSchemaMatchesBenchmarkJSON keeps the metric tables in this
// package and BENCHMARK.json in step, names and units alike, and every
// workload listed there runnable here.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	s := loadSchema(t)
	check := func(kind string, defs []metricDef, names, units []string) {
		if len(defs) != len(names) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(names), len(defs))
		}
		for i := range names {
			if i < len(defs) && (defs[i].name != names[i] || defs[i].unit != units[i]) {
				t.Errorf("%s %d: BENCHMARK.json %s %s, benchmark %s %s", kind, i, names[i], units[i], defs[i].name, defs[i].unit)
			}
		}
	}
	var n, u []string
	for _, m := range s.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", e2eDefs, n, u)
	n, u = nil, nil
	for _, m := range s.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("per_layer", layerDefs, n, u)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not defined", w.Name)
		}
	}
}

// smokeSizes shrinks every workload to a few seconds.
var smokeSizes = map[string]struct{ n, slots int }{
	"sim-steady-10k": {n: 128, slots: 4},
	"sim-churn-1k":   {n: 96, slots: 6},
	"live-udp-32":    {n: 5, slots: 4},
}

// runSmoke runs a shrunken workload in a child process, as the
// command line would, and returns its output and parsed summary.
func runSmoke(t *testing.T, name string, seed int64, trace bool) (string, summary) {
	t.Helper()
	size := smokeSizes[name]
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(seed), "--n", fmt.Sprint(size.n),
		"--slots", fmt.Sprint(size.slots), "--setup-reps", "2", "--trace", tr)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s trace=%s: %v\n%s", name, tr, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("%s: last line is not the JSON summary: %v", name, err)
	}
	return string(out), s
}

// TestSmokeEveryMetricPrints runs each workload small, untraced and
// traced, and checks that every BENCHMARK.json metric prints by name
// with its unit, in the JSON summary and in the table above it.
func TestSmokeEveryMetricPrints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	schema := loadSchema(t)
	for _, w := range schema.Workloads {
		for _, trace := range []bool{false, true} {
			out, s := runSmoke(t, w.Name, 3, trace)
			if s.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted=%d\n%s", w.Name, trace, s.Attempted, out)
			}
			want := map[string]string{}
			if trace {
				for _, m := range schema.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range schema.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(s.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", w.Name, trace, len(s.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := s.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, name, m, unit)
				}
				if !strings.Contains(out, name) {
					t.Errorf("%s trace=%v: %s missing from the table", w.Name, trace, name)
				}
			}
		}
	}
}

// TestSimCountsDeterministic checks that the simulator count metrics
// repeat exactly for one seed, differ for another, and that the traced
// run reproduces them (runSim compares the two passes and reports a
// difference).
func TestSimCountsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator workloads three times")
	}
	for _, name := range []string{"sim-steady-10k", "sim-churn-1k"} {
		_, a := runSmoke(t, name, 5, false)
		_, b := runSmoke(t, name, 5, false)
		_, c := runSmoke(t, name, 6, false)
		out, traced := runSmoke(t, name, 5, true)
		if strings.Contains(out, "traced run differs") {
			t.Errorf("%s: traced run's counts differ from the untraced run's:\n%s", name, out)
		}
		if !traced.Correct {
			t.Errorf("%s: traced run not correct:\n%s", name, out)
		}
		differ := false
		for _, m := range countMetrics {
			if a.Metrics[m].Value != b.Metrics[m].Value {
				t.Errorf("%s: %s = %v then %v for one seed", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
			if a.Metrics[m].Value != c.Metrics[m].Value {
				differ = true
			}
		}
		if !differ {
			t.Errorf("%s: seeds 5 and 6 gave identical count metrics", name)
		}
	}
}

// TestSameCountsDetectsDifference pins the traced/untraced comparison.
func TestSameCountsDetectsDifference(t *testing.T) {
	a := figures{}
	for _, m := range countMetrics {
		a[m] = 1
	}
	b := figures{}
	for k, v := range a {
		b[k] = v
	}
	if err := sameCounts(a, b); err != nil {
		t.Fatal(err)
	}
	b["load_imbalance"] = 1.5
	if sameCounts(a, b) == nil {
		t.Fatal("difference not detected")
	}
}
