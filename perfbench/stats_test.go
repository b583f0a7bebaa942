package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) *dist {
		d := &dist{}
		for i := n; i >= 1; i-- {
			d.add(float64(i))
		}
		return d
	}
	for _, c := range []struct {
		n, want, pct int
		v            float64
	}{
		{200, 90, 90, 180}, // 20 samples beyond p90
		{100, 90, 90, 90},  // exactly 10 beyond
		{60, 90, 83, 50},   // p83: rank 50, 10 beyond
		{40, 90, 75, 30},
		{20, 90, 50, 10.5}, // p50 is the largest with 10 beyond: the median
		{12, 90, 50, 6.5},  // too few for any tail: median
		{1, 90, 50, 1},
	} {
		pct, v := seq(c.n).tail(c.want)
		if pct != c.pct || v != c.v {
			t.Errorf("n=%d: tail = p%d %v, want p%d %v", c.n, pct, v, c.pct, c.v)
		}
		if pct > 50 {
			beyond := 0
			for _, x := range seq(c.n).xs {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: only %d samples beyond p%d", c.n, beyond, pct)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(values, n=4) on these inputs.
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, m, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(m-c.m) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestPhaseSpread(t *testing.T) {
	ms := func(x float64) int64 { return int64(x * 1e6) }
	for _, c := range []struct {
		phases []int64
		want   float64
	}{
		{[]int64{ms(0), ms(10), ms(20)}, 20},
		{[]int64{ms(990), ms(5)}, 15}, // wraps around the slot boundary
		{[]int64{ms(0), ms(500)}, 500},
	} {
		ps := make([]time.Duration, len(c.phases))
		for i, p := range c.phases {
			ps[i] = time.Duration(p)
		}
		if got := phaseSpread(ps, 1e9); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("phaseSpread(%v) = %v, want %v", c.phases, got, c.want)
		}
	}
}
