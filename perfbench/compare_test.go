package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		dir   string
		bound float64
		head  []float64
		want  string
	}{
		{"lower", 0.1, []float64{101, 100, 102, 99, 100, 101, 100, 99, 100, 101}, "within-bound"},
		{"lower", 0.1, []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "regressed"},
		{"higher", 0.1, []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "regressed"},
		{"higher", 0.1, []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "within-bound"},
		// Base spread wider than the bound: only a head that beats every
		// base run resolves.
		{"lower", 0.01, []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}, "unresolved"},
		{"lower", 0.01, []float64{90, 90, 90, 90, 90, 90, 90, 90, 90, 90}, "within-bound"},
	} {
		if got := verdictOf(c.dir, c.bound, base, c.head); got != c.want {
			t.Errorf("%s bound %v head %v: %s, want %s", c.dir, c.bound, c.head[:3], got, c.want)
		}
	}
}

// TestCompareReadsSavedRuns runs the compare mode on two directories of
// saved outputs and checks the row it prints.
func TestCompareReadsSavedRuns(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"cpu_us_per_node_slot","unit":"us","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(side string, seed int, v float64) {
		d := filepath.Join(dir, side)
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprintf("# perfbench workload=w seed=%d trace=0\n{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"cpu_us_per_node_slot\":{\"value\":%v,\"unit\":\"us\"}}}\n", seed, v)
		if err := os.WriteFile(filepath.Join(d, fmt.Sprint(seed)), []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for s := 1; s <= 4; s++ {
		write("base", s, 100+float64(s))
		write("head", s, 90+float64(s))
	}
	var buf bytes.Buffer
	if err := runCompare(&buf, bench, filepath.Join(dir, "base"), filepath.Join(dir, "head")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "4/4 within-bound") {
		t.Errorf("compare output:\n%s", buf.String())
	}
}
