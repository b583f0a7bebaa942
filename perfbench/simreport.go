package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// simE2E computes the end-to-end figures of one measured window and
// runs the output checks, recording failures in r.
func (p *simPass) simE2E(w windowOut, r *report) figures {
	s := p.spec
	f := figures{}
	ns := w.nodeSlots
	f.set("cpu_us_per_node_slot", w.factor*perNodeSlot(float64(w.cpu.Microseconds()), ns))
	f.set("allocs_per_node_slot", perNodeSlot(float64(w.rt1.allocObjects-w.rt0.allocObjects), ns))
	f.set("heap_bytes_per_node", float64(w.heap)/float64(s.n))
	f.set("datagrams_per_node_slot", perNodeSlot(float64(p.tap.total), ns))
	maxImb, topImb := imbalance(p.tap.datRecv)
	f.set("load_imbalance", topImb)
	f.set("core.load_max_over_mean", maxImb)
	f.set("e2e.wall_us_per_node_slot", w.factor*perNodeSlot(float64(w.wall.Nanoseconds())/1e3, ns))
	f.set("host.probe_factor", w.factor)
	f.set("e2e.wire_bytes_per_node_slot", 0)

	// Root results: ages from the timestamp trees, checks and coverage
	// from the value trees, one (tree, slot) cell per expected result.
	var ages, oldest dist
	var over, overN int
	var worst float64
	have := make([][]bool, s.trees)
	best := make([][]uint64, s.trees)
	for j := range have {
		have[j] = make([]bool, w.slots)
		best[j] = make([]uint64, w.slots)
	}
	total := make([]float64, s.trees)
	for i := 0; i < s.n; i++ {
		for j := 1; j < s.trees; j += 2 {
			total[j] += sensorValue(i, j)
		}
	}
	for _, res := range p.results {
		k := int(res.slot - p.firstSlot)
		if k < 0 || k >= w.slots {
			continue
		}
		a := res.agg
		have[res.tree][k] = true
		if a.Count > best[res.tree][k] {
			best[res.tree][k] = a.Count
		}
		if isTimeTree(res.tree) {
			if s.churn == 0 && a.Count != uint64(s.n) {
				r.fail("timestamp tree %d slot %d: count %d, want %d", res.tree, res.slot, a.Count, s.n)
			}
			if a.Count > 0 {
				at := float64(res.at) / 1e6
				ages.add(at - a.Sum/float64(a.Count))
				oldest.add(at - a.Min)
			}
			continue
		}
		if s.churn == 0 {
			if a.Count != uint64(s.n) || a.Sum != total[res.tree] {
				r.fail("tree %d slot %d: count %d sum %v, want %d and %v", res.tree, res.slot, a.Count, a.Sum, s.n, total[res.tree])
			}
			continue
		}
		if msg := checkValues(a); msg != "" {
			r.fail("tree %d slot %d: %s", res.tree, res.slot, msg)
		}
		lim := p.countLimit(k)
		overN++
		if a.Count > uint64(lim) {
			over++
		}
		if x := float64(a.Count) / float64(lim); x > worst {
			worst = x
		}
	}
	var missing int64
	var cov, acc, raw float64
	var covN int
	for j := 0; j < s.trees; j++ {
		for k := 0; k < w.slots; k++ {
			if !have[j][k] {
				missing++
				continue
			}
			if !isTimeTree(j) {
				cov += coverageOf(best[j][k], p.alive[k])
				acc += accuracyOf(best[j][k], p.alive[k])
				raw += float64(best[j][k]) / float64(p.alive[k])
				covN++
			}
		}
	}
	f.set("root_coverage", ratio(cov, float64(covN)))
	f.set("root_accuracy", ratio(acc, float64(covN)))
	r.note("root count / alive: mean %.4f over %d value-tree results (root_coverage caps each at 1)", ratio(raw, float64(covN)), covN)
	p50 := ages.median()
	pct, p90 := ages.tail(90)
	f.set("root_age_ms_p50", p50)
	f.set("e2e.root_age_ms_p90", p90)
	f.set("core.root_oldest_ms_p50", oldest.median())
	f.set("core.root_overcount_share", ratio(float64(over), float64(overN)))
	r.note("root_age_ms (fold time - mean read time): n=%d p50=%.3f p%d=%.3f (reported as e2e.root_age_ms_p90)", ages.n(), p50, pct, p90)
	r.note("oldest contribution (fold time - min read time): p50=%.3f ms", oldest.median())
	if s.churn > 0 {
		r.note("value-tree results over the live+recently-crashed membership: %d of %d, worst count/limit %.3f", over, overN, worst)
	}

	for _, msg := range p.queryWrong {
		r.fail("%s", msg)
	}
	qp50 := p.queryLat.median()
	qpct, qp90 := p.queryLat.tail(90)
	f.set("e2e.query_ms_p50", qp50)
	f.set("e2e.query_ms_p90", qp90)
	if s.query {
		r.note("query_ms: n=%d p50=%.3f p%d=%.3f (window %v included)", p.queryLat.n(), qp50, qpct, qp90, s.queryWindow)
	}

	r.attempted = int64(s.trees*w.slots) + p.queries
	r.failed = missing + p.queryFails
	f.set("ok_share", 1-ratio(float64(r.failed), float64(r.attempted)))
	f.set("e2e.failed_share", ratio(float64(r.failed), float64(r.attempted)))
	r.note("window: %d slots, %.0f node-slots, %d root results missing, %d/%d queries failed, wall %.3fs, cpu %.3fs, host probe factor %.3f",
		w.slots, ns, missing, p.queryFails, p.queries, w.wall.Seconds(), w.cpu.Seconds(), w.factor)
	return f
}

// coverageOf is the completeness of one root count: the share of the
// alive nodes it reached, capped at 1 so double counting cannot raise it.
func coverageOf(count uint64, alive int) float64 {
	if alive <= 0 {
		return 0
	}
	c := float64(count) / float64(alive)
	if c > 1 {
		return 1
	}
	return c
}

// accuracyOf is 1 minus the relative count error, penalising missing
// and double-counted nodes alike (floored at 0).
func accuracyOf(count uint64, alive int) float64 {
	if alive <= 0 {
		return 0
	}
	e := float64(count)/float64(alive) - 1
	if e < 0 {
		e = -e
	}
	if e > 1 {
		return 0
	}
	return 1 - e
}

// imbalance returns two load-imbalance figures over per-node loads:
// max/mean (paper Fig. 8b) and top/mean, where top is the mean load of
// the busiest 1% of nodes (at least 3). The max is one node, so which
// node a seed's layout makes busiest decides it; averaging the busiest
// few keeps the figure about the system rather than one draw.
func imbalance(recv []uint64) (maxOverMean, topOverMean float64) {
	if len(recv) == 0 {
		return 0, 0
	}
	xs := append([]uint64(nil), recv...)
	sort.Slice(xs, func(i, j int) bool { return xs[i] > xs[j] })
	k := (len(xs) + 99) / 100
	if k < 3 {
		k = 3
	}
	if k > len(xs) {
		k = len(xs)
	}
	var sum, top uint64
	for i, v := range xs {
		sum += v
		if i < k {
			top += v
		}
	}
	if sum == 0 {
		return 0, 0
	}
	mean := float64(sum) / float64(len(xs))
	return float64(xs[0]) / mean, float64(top) / float64(k) / mean
}

// simLayers computes the traced window's per-layer figures.
func (p *simPass) simLayers(w windowOut, f figures) {
	s := p.spec
	ns := w.nodeSlots
	slots := float64(w.slots)
	g := w.reg
	f.set("sim.events_per_node_slot", perNodeSlot(float64(sumU(w.steps.count[:])), ns))
	f.set("sim.queue_len_max", float64(w.steps.qmax))
	var inSteps time.Duration
	for c, name := range stepClasses {
		f.set("step."+name+".per_node_slot", perNodeSlot(float64(w.steps.count[c]), ns))
		f.set("step."+name+".us_per_node_slot", w.factor*perNodeSlot(float64(w.steps.dur[c].Nanoseconds())/1e3, ns))
		inSteps += w.steps.dur[c]
	}
	f.set("step.outside.us_per_node_slot", w.factor*perNodeSlot(float64((w.wall-inSteps).Nanoseconds())/1e3, ns))
	f.set("transport.chord_msgs_per_node_slot", perNodeSlot(float64(p.tap.chord), ns))
	f.set("transport.dat_msgs_per_node_slot", perNodeSlot(float64(p.tap.dat), ns))
	f.set("transport.replies_per_node_slot", perNodeSlot(float64(p.tap.replies), ns))
	f.set("transport.dropped_per_node_slot", perNodeSlot(float64(p.c.Net.Dropped()-p.dropped0), ns))
	coreLayers(f, g, ns, slots)
	f.set("core.queue_hiwater_bytes", float64(w.hiwater))
	spans := p.obs.Spans.Snapshot()
	var hops dist
	height := 0
	for _, sp := range spans {
		if sp.Demand {
			continue
		}
		hops.add(float64(sp.Recv-sp.Sent) / 1e6)
		if sp.Height+1 > height {
			height = sp.Height + 1
		}
	}
	f.set("core.tree_height_max", float64(height))
	f.set("core.delivery_ms_p50", hops.median())
	_, d90 := hops.tail(90)
	f.set("core.delivery_ms_p90", d90)
	f.set("core.tick_phase_spread_ms", phaseSpread(p.phase, s.slot))
	for _, k := range []string{"wire.frames_per_node_slot", "wire.bytes_per_frame", "wire.fallback_share",
		"rpcudp.retransmits_per_node_slot", "rpcudp.send_errors_per_slot", "rpcudp.decode_errors_per_slot"} {
		f.set(k, 0)
	}
	runtimeLayers(f, w.rt0, w.rt1, ns, slots)
	f.set("host.probe_factor", w.factor)
	cpuFigures(f, w.profile, ns, w.factor)
}

func sumU(xs []uint64) uint64 {
	var s uint64
	for _, x := range xs {
		s += x
	}
	return s
}

// coreLayers derives the chord and core figures from obs.Observer
// counters (window deltas, summed over every node of the run).
func coreLayers(f figures, g counters, ns, slots float64) {
	f.set("chord.stabilize_rounds_per_node_slot", perNodeSlot(g.family("chord_stabilize_rounds_total"), ns))
	f.set("chord.lookup_hops_mean", g.histMean("chord_lookup_hops"))
	f.set("chord.suspects_per_slot", ratio(g.family("chord_suspects_total"), slots))
	f.set("chord.evictions_per_slot", ratio(g.family("chord_evictions_total"), slots))
	applied := g.series("dat_updates_total", "kind", "applied") + g.series("dat_updates_total", "kind", "applied-demand")
	f.set("core.updates_applied_per_node_slot", perNodeSlot(applied, ns))
	f.set("core.round_fanin_mean", g.histMean("dat_round_fanin"))
	flushes := g.family("dat_batch_flushes_total")
	f.set("core.batch_flushes_per_node_slot", perNodeSlot(flushes, ns))
	f.set("core.batch_elems_per_flush", g.histMean("dat_batch_elems_per_flush"))
	f.set("core.batch_deadline_flush_share", ratio(g.series("dat_batch_flushes_total", "reason", "deadline"), flushes))
	ok := g.series("dat_update_deliveries_total", "outcome", "ok")
	chains := ok + g.series("dat_update_deliveries_total", "outcome", "abandoned")
	retries := g.family("dat_update_retries_total")
	f.set("core.delivery_ok_share", ratio(ok, chains))
	f.set("core.delivery_attempts_mean", ratio(chains+retries, chains))
	f.set("core.retries_per_node_slot", perNodeSlot(retries, ns))
	f.set("core.failovers_per_slot", ratio(g.family("dat_parent_failovers_total"), slots))
	f.set("core.handovers_per_slot", ratio(g.family("dat_root_handovers_total"), slots))
	var rejected float64
	for k, v := range g {
		if kind, ok := cutSeries(k, "dat_updates_total", "kind"); ok && strings.HasPrefix(kind, "rejected") {
			rejected += v
		}
	}
	f.set("core.updates_rejected_per_slot", ratio(rejected, slots))
	f.set("core.child_expired_per_slot", ratio(g.family("dat_children_expired_total"), slots))
	f.set("core.shed_per_slot", ratio(g.family("dat_shed_total"), slots))
	f.set("core.breaker_opens_per_slot", ratio(g.series("dat_breaker_transitions_total", "state", "open"), slots))
}

// runtimeLayers derives the Go runtime figures from runtime/metrics
// readings at the window's start and end.
func runtimeLayers(f figures, rt0, rt1 rtSnap, ns, slots float64) {
	busy := (rt1.totalCPU - rt0.totalCPU) - (rt1.idleCPU - rt0.idleCPU)
	f.set("runtime.gc_cpu_share", ratio(rt1.gcCPU-rt0.gcCPU, busy))
	f.set("runtime.gc_cycles_per_slot", ratio(float64(rt1.gcCycles-rt0.gcCycles), slots))
	f.set("runtime.alloc_bytes_per_node_slot", perNodeSlot(float64(rt1.allocBytes-rt0.allocBytes), ns))
	f.set("runtime.sched_latency_us_p90", histQuantile(rt0.sched, rt1.sched, 0.9)*1e6)
}

// cpuFigures parses a CPU profile and sets cpu.<bucket>_us_per_node_slot,
// scaled by the host probe factor like cpu_us_per_node_slot.
func cpuFigures(f figures, profile []byte, ns, factor float64) {
	byBucket := map[string]time.Duration{}
	if prof, err := parseProfile(profile); err == nil {
		byBucket = attributeCPU(prof)
	}
	for _, b := range cpuBuckets {
		f.set("cpu."+b+"_us_per_node_slot", factor*perNodeSlot(float64(byBucket[b].Nanoseconds())/1e3, ns))
	}
}

// phaseSpread is the smallest arc of the slot circle holding every
// node's sensor-read phase, in milliseconds.
func phaseSpread(phases []time.Duration, slot time.Duration) float64 {
	if len(phases) == 0 {
		return 0
	}
	ps := make([]time.Duration, len(phases))
	for i, v := range phases {
		ps[i] = ((v % slot) + slot) % slot
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	gap := ps[0] + slot - ps[len(ps)-1] // the wrap-around gap
	for i := 1; i < len(ps); i++ {
		if d := ps[i] - ps[i-1]; d > gap {
			gap = d
		}
	}
	return float64(slot-gap) / 1e6
}

// countMetrics are the simulator figures that are pure functions of
// the seed: hooks, taps and timers draw no randomness, so they repeat
// exactly for a seed and match between traced and untraced runs.
var countMetrics = []string{"datagrams_per_node_slot", "load_imbalance", "root_age_ms_p50",
	"e2e.root_age_ms_p90", "root_coverage", "root_accuracy", "ok_share"}

// sameCounts compares the simulator count metrics of an untraced and a
// traced pass of the same seed, which hooks and taps must not perturb.
func sameCounts(a, b figures) error {
	for _, k := range countMetrics {
		if a[k] != b[k] {
			return fmt.Errorf("%s: untraced %v, traced %v", k, a[k], b[k])
		}
	}
	return nil
}
