package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchFile is the part of BENCHMARK.json the compare mode reads.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// savedRun is one saved benchmark output: its header and summary line.
type savedRun struct {
	workload string
	seed     int64
	trace    int
	sum      summary
}

// readRuns loads every regular file in dir that holds a perfbench
// header and a JSON summary line.
func readRuns(dir string) ([]savedRun, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		run, ok, err := readRun(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		if ok {
			runs = append(runs, run)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no perfbench outputs", dir)
	}
	return runs, nil
}

func readRun(path string) (savedRun, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return savedRun{}, false, err
	}
	defer f.Close()
	var run savedRun
	var header bool
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# perfbench ") {
			_, err := fmt.Sscanf(line, "# perfbench workload=%s seed=%d trace=%d", &run.workload, &run.seed, &run.trace)
			header = err == nil
		}
		if strings.HasPrefix(line, "{") {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return savedRun{}, false, fmt.Errorf("%s: %w", path, err)
	}
	if !header || last == "" {
		return savedRun{}, false, nil
	}
	if err := json.Unmarshal([]byte(last), &run.sum); err != nil {
		return savedRun{}, false, fmt.Errorf("%s: %w", path, err)
	}
	return run, true, nil
}

// runCompare prints, per workload and end-to-end metric, each side's
// median and quartiles, the share of seed-matched pairs the head side
// wins (ties count for neither), and whether the head median stays
// within the metric's bound of the base median.
func runCompare(w io.Writer, benchPath, baseDir, headDir string) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bench benchFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	base, err := readRuns(baseDir)
	if err != nil {
		return err
	}
	head, err := readRuns(headDir)
	if err != nil {
		return err
	}
	byWorkload := func(runs []savedRun) map[string]map[int64]savedRun {
		out := map[string]map[int64]savedRun{}
		for _, r := range runs {
			if r.trace != 0 {
				continue
			}
			if out[r.workload] == nil {
				out[r.workload] = map[int64]savedRun{}
			}
			out[r.workload][r.seed] = r
		}
		return out
	}
	b, h := byWorkload(base), byWorkload(head)
	var names []string
	for k := range b {
		if h[k] != nil {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no workload has untraced runs on both sides")
	}
	regressed := false
	fmt.Fprintf(w, "%-16s %-26s %12s %12s %12s %12s %12s %12s %6s %s\n",
		"workload", "metric", "base_q1", "base_med", "base_q3", "head_q1", "head_med", "head_q3", "won", "verdict")
	for _, wl := range names {
		for _, m := range bench.EndToEnd {
			var bv, hv []float64
			won, pairs := 0, 0
			for seed, br := range b[wl] {
				bm, ok := br.sum.Metrics[m.Name]
				if !ok {
					continue
				}
				bv = append(bv, bm.Value)
				hr, ok := h[wl][seed]
				if !ok {
					continue
				}
				hm, ok := hr.sum.Metrics[m.Name]
				if !ok {
					continue
				}
				pairs++
				if better(m.Better, hm.Value, bm.Value) {
					won++
				}
			}
			for _, hr := range h[wl] {
				if hm, ok := hr.sum.Metrics[m.Name]; ok {
					hv = append(hv, hm.Value)
				}
			}
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			bq1, bmed, bq3 := quartiles(bv)
			hq1, hmed, hq3 := quartiles(hv)
			verdict := verdictOf(m.Better, m.Bound, bv, hv)
			if verdict == "regressed" {
				regressed = true
			}
			fmt.Fprintf(w, "%-16s %-26s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %6s %s\n",
				wl, m.Name, bq1, bmed, bq3, hq1, hmed, hq3, fmt.Sprintf("%d/%d", won, pairs), verdict)
		}
	}
	if regressed {
		fmt.Fprintln(w, "some metric got worse than its bound allows")
	}
	return nil
}

// better reports whether a beats b in the metric's direction.
func better(dir string, a, b float64) bool {
	if dir == "lower" {
		return a < b
	}
	return a > b
}

// verdictOf judges the head median against the base median: a change
// beyond the bound is "regressed"; within it, "within-bound", unless
// the base runs spread (quartile distance over median) wider than the
// bound and not every head run beats every base run, which is
// "unresolved".
func verdictOf(dir string, bound float64, bv, hv []float64) string {
	bq1, bmed, bq3 := quartiles(bv)
	_, hmed, _ := quartiles(hv)
	if bmed == 0 {
		return "unresolved"
	}
	worse := (hmed - bmed) / bmed
	if dir == "higher" {
		worse = -worse
	}
	if worse > bound {
		return "regressed"
	}
	if (bq3-bq1)/bmed > bound {
		for _, h := range hv {
			for _, b := range bv {
				if !better(dir, h, b) {
					return "unresolved"
				}
			}
		}
	}
	return "within-bound"
}
