package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// counters is one reading of an obs.Registry, keyed by series
// ("name" or `name{label="value"}`), taken through its public
// Prometheus exposition.
type counters map[string]float64

func readRegistry(r *obs.Registry) counters {
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		return counters{}
	}
	return parseExposition(buf.Bytes())
}

// parseExposition parses Prometheus text format: comment lines are
// skipped and every other line is "series value".
func parseExposition(b []byte) counters {
	out := counters{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] += v
	}
	return out
}

// family sums every series of one metric family (all label values).
func (c counters) family(name string) float64 {
	var s float64
	for k, v := range c {
		if k == name || (strings.HasPrefix(k, name+"{") && !strings.Contains(k, "le=")) {
			s += v
		}
	}
	return s
}

// series returns one labelled series.
func (c counters) series(name, label, value string) float64 {
	return c[name+"{"+label+`="`+value+`"}`]
}

// sub returns the element-wise difference c - before.
func (c counters) sub(before counters) counters {
	out := make(counters, len(c))
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

// add accumulates another reading into c.
func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

// histMean is a histogram family's mean over the reading.
func (c counters) histMean(name string) float64 {
	return ratio(c[name+"_sum"], c[name+"_count"])
}
