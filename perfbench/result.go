package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit. The two tables below are the
// benchmark's schema; BENCHMARK.json lists the same names and units,
// and a self-test keeps the two in step.
type metricDef struct{ name, unit string }

// e2eDefs are printed by every untraced run, on every workload.
var e2eDefs = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_node_slot", "us"},
	{"allocs_per_node_slot", "count"},
	{"heap_bytes_per_node", "bytes"},
	{"datagrams_per_node_slot", "count"},
	{"load_imbalance", "ratio"},
	{"root_age_ms_p50", "ms"},
	{"root_coverage", "ratio"},
	{"root_accuracy", "ratio"},
	{"ok_share", "ratio"},
}

// stepClasses are the traced simulator's step classes.
var stepClasses = []string{"deliver_chord", "deliver_dat", "tick_dat", "timer_other"}

// cpuBuckets are the CPU-profile attribution buckets, in print order.
var cpuBuckets = []string{"sim", "transport", "chord", "core", "wire", "rpcudp", "obs",
	"runtime_gc", "runtime_malloc", "syscall", "other"}

// layerDefs are printed by every traced run, on every workload; a layer
// a workload does not exercise reads 0 there.
var layerDefs = func() []metricDef {
	d := []metricDef{
		{"e2e.wall_us_per_node_slot", "us"},
		{"e2e.wire_bytes_per_node_slot", "bytes"},
		{"e2e.query_ms_p50", "ms"},
		{"e2e.query_ms_p90", "ms"},
		{"e2e.root_age_ms_p90", "ms"},
		{"e2e.failed_share", "ratio"},
		{"sim.events_per_node_slot", "count"},
		{"sim.queue_len_max", "count"},
	}
	for _, c := range stepClasses {
		d = append(d, metricDef{"step." + c + ".per_node_slot", "count"},
			metricDef{"step." + c + ".us_per_node_slot", "us"})
	}
	d = append(d,
		metricDef{"step.outside.us_per_node_slot", "us"},
		metricDef{"transport.chord_msgs_per_node_slot", "count"},
		metricDef{"transport.dat_msgs_per_node_slot", "count"},
		metricDef{"transport.replies_per_node_slot", "count"},
		metricDef{"transport.dropped_per_node_slot", "count"},
		metricDef{"chord.stabilize_rounds_per_node_slot", "count"},
		metricDef{"chord.lookup_hops_mean", "count"},
		metricDef{"chord.suspects_per_slot", "count"},
		metricDef{"chord.evictions_per_slot", "count"},
		metricDef{"core.updates_applied_per_node_slot", "count"},
		metricDef{"core.round_fanin_mean", "count"},
		metricDef{"core.tree_height_max", "count"},
		metricDef{"core.batch_flushes_per_node_slot", "count"},
		metricDef{"core.batch_elems_per_flush", "count"},
		metricDef{"core.batch_deadline_flush_share", "ratio"},
		metricDef{"core.delivery_ok_share", "ratio"},
		metricDef{"core.delivery_attempts_mean", "count"},
		metricDef{"core.retries_per_node_slot", "count"},
		metricDef{"core.failovers_per_slot", "count"},
		metricDef{"core.handovers_per_slot", "count"},
		metricDef{"core.updates_rejected_per_slot", "count"},
		metricDef{"core.child_expired_per_slot", "count"},
		metricDef{"core.delivery_ms_p50", "ms"},
		metricDef{"core.delivery_ms_p90", "ms"},
		metricDef{"core.shed_per_slot", "count"},
		metricDef{"core.breaker_opens_per_slot", "count"},
		metricDef{"core.queue_hiwater_bytes", "bytes"},
		metricDef{"core.tick_phase_spread_ms", "ms"},
		metricDef{"core.root_oldest_ms_p50", "ms"},
		metricDef{"core.root_overcount_share", "ratio"},
		metricDef{"core.load_max_over_mean", "ratio"},
		metricDef{"wire.frames_per_node_slot", "count"},
		metricDef{"wire.bytes_per_frame", "bytes"},
		metricDef{"wire.fallback_share", "ratio"},
		metricDef{"rpcudp.retransmits_per_node_slot", "count"},
		metricDef{"rpcudp.send_errors_per_slot", "count"},
		metricDef{"rpcudp.decode_errors_per_slot", "count"},
		metricDef{"runtime.gc_cpu_share", "ratio"},
		metricDef{"runtime.gc_cycles_per_slot", "count"},
		metricDef{"runtime.alloc_bytes_per_node_slot", "bytes"},
		metricDef{"runtime.sched_latency_us_p90", "us"},
		metricDef{"host.probe_factor", "ratio"},
	)
	for _, b := range cpuBuckets {
		d = append(d, metricDef{"cpu." + b + "_us_per_node_slot", "us"})
	}
	return append(d,
		metricDef{"setup.build_s", "s"},
		metricDef{"setup.converge_s", "s"},
		metricDef{"setup.warmup_s", "s"},
		metricDef{"trace.overhead_share", "ratio"},
	)
}()

// unitOf returns the schema unit of a metric name.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{e2eDefs, layerDefs} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: metric " + name + " is not in the schema")
}

// figures collects metric values by name; set panics on a name outside
// the schema so a typo cannot print an unlisted metric.
type figures map[string]float64

func (f figures) set(name string, v float64) {
	unitOf(name)
	f[name] = v
}

// layerPart returns the per-layer figures an untraced pass measured
// (e2e.* and the root-count figures), for the traced run to print.
func (f figures) layerPart() figures {
	out := figures{}
	for _, d := range layerDefs {
		if v, ok := f[d.name]; ok {
			out[d.name] = v
		}
	}
	return out
}

// report is the outcome of one benchmark invocation.
type report struct {
	workload string
	seed     int64
	trace    bool
	// errs are correctness failures: any entry makes correct false.
	errs      []string
	attempted int64
	failed    int64
	values    figures
	// notes are human-readable lines (sample counts, percentiles used).
	notes []string
}

func (r *report) fail(format string, args ...any) {
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// write prints the human-readable table and then the one-line JSON
// summary holding exactly the schema's metrics for the run's mode.
func (r *report) write(w io.Writer) error {
	defs := e2eDefs
	if r.trace {
		defs = layerDefs
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d trace=%d\n", r.workload, r.seed, b2i(r.trace))
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "# WRONG: %s\n", e)
	}
	s := summary{Correct: len(r.errs) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metric, len(defs))}
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("perfbench: metric %s was not measured", d.name)
		}
		s.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %16.6g %s\n", n, s.Metrics[n].Value, s.Metrics[n].Unit)
	}
	if s.Attempted < 1 {
		s.Attempted = 1
		s.Correct = false
	}
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// perNodeSlot divides a window total by the node-slots it covers.
func perNodeSlot(total float64, nodeSlots float64) float64 {
	if nodeSlots <= 0 {
		return 0
	}
	return total / nodeSlots
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// isDat reports whether a transport message type belongs to the DAT
// layer (replies carry the request's type plus ":reply").
func isDat(typ string) bool { return strings.HasPrefix(typ, "dat.") }
