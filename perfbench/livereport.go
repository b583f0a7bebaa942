package main

import "fmt"

// liveE2E computes the end-to-end figures of a live window and runs the
// output checks.
func (p *livePass) liveE2E(w liveWindow, r *report) figures {
	s := p.spec
	f := figures{}
	ns := w.nodeSlots
	g := w.reg
	f.set("cpu_us_per_node_slot", w.factor*perNodeSlot(float64(w.cpu.Microseconds()), ns))
	f.set("host.probe_factor", w.factor)
	f.set("allocs_per_node_slot", perNodeSlot(float64(w.rt1.allocObjects-w.rt0.allocObjects), ns))
	f.set("heap_bytes_per_node", float64(w.heap)/float64(s.n))
	f.set("datagrams_per_node_slot", perNodeSlot(g.family("dat_transport_messages_total"), ns))
	maxImb, topImb := imbalance(w.perPeerDat)
	f.set("load_imbalance", topImb)
	f.set("core.load_max_over_mean", maxImb)
	f.set("e2e.wall_us_per_node_slot", 0)
	f.set("e2e.wire_bytes_per_node_slot", perNodeSlot(g.series("rpcudp_wire_bytes_total", "dir", "tx"), ns))

	total := p.valueTotals()
	var ages, oldest dist
	type cell struct {
		tree, root int
		slot       int64
	}
	seen := map[cell]bool{}
	got := make([]int, s.trees)
	var cov, acc float64
	var covN, over int
	var maxCount uint64
	p.mu.Lock()
	results := append([]liveResult(nil), p.results...)
	p.mu.Unlock()
	for _, res := range results {
		if res.at < w.start || res.at >= w.end {
			continue
		}
		a := res.agg
		c := cell{res.tree, res.root, res.slot}
		if !seen[c] {
			seen[c] = true
			got[res.tree]++
		}
		if a.Count > maxCount {
			maxCount = a.Count
		}
		if isTimeTree(res.tree) {
			if a.Count != uint64(s.n) {
				r.fail("timestamp tree slot %d at peer %d: count %d, want %d", res.slot, res.root, a.Count, s.n)
				continue
			}
			at := float64(res.at) / 1e6
			ages.add(at - a.Sum/float64(a.Count))
			oldest.add(at - a.Min)
			continue
		}
		if msg := checkLive(a, s.n, total[res.tree], true); msg != "" {
			r.fail("tree %d slot %d at peer %d: %s", res.tree, res.slot, res.root, msg)
		}
		if a.Count > uint64(s.n) {
			over++
		}
		cov += coverageOf(a.Count, s.n)
		acc += accuracyOf(a.Count, s.n)
		covN++
	}
	var missing int64
	for _, k := range got {
		if k < w.slots {
			missing += int64(w.slots - k)
		}
	}
	f.set("root_coverage", ratio(cov, float64(covN)))
	f.set("root_accuracy", ratio(acc, float64(covN)))
	p50 := ages.median()
	pct, tail := ages.tail(90)
	f.set("root_age_ms_p50", p50)
	f.set("e2e.root_age_ms_p90", tail)
	f.set("core.root_oldest_ms_p50", oldest.median())
	f.set("core.root_overcount_share", ratio(float64(over), float64(covN)))
	r.note("root_age_ms (fold time - mean read time): n=%d p50=%.3f p%d=%.3f (reported as e2e.root_age_ms_p90)", ages.n(), p50, pct, tail)
	r.note("oldest contribution (fold time - min read time): p50=%.3f ms", oldest.median())
	for _, msg := range w.queryWrong {
		r.fail("%s", msg)
	}
	qp50 := w.queryLat.median()
	qpct, qtail := w.queryLat.tail(90)
	f.set("e2e.query_ms_p50", qp50)
	f.set("e2e.query_ms_p90", qtail)
	r.note("query_ms: n=%d p50=%.3f p%d=%.3f (window %v included)", w.queryLat.n(), qp50, qpct, qtail, s.queryWindow)
	r.attempted = int64(s.trees*w.slots) + w.queries
	r.failed = missing + w.queryFails
	f.set("ok_share", 1-ratio(float64(r.failed), float64(r.attempted)))
	f.set("e2e.failed_share", ratio(float64(r.failed), float64(r.attempted)))
	r.note("window: %d slots of %v, %d root results missing, largest root count %d, %d/%d queries failed, tick phase spread %.1fms, cpu %.3fs, host probe factor %.3f",
		w.slots, s.slot, missing, maxCount, w.queryFails, w.queries, p.phaseSpread(), w.cpu.Seconds(), w.factor)
	return f
}

func (p *livePass) phaseSpread() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return phaseSpread(p.phase, p.spec.slot)
}

// liveLayers computes the traced live window's per-layer figures.
func (p *livePass) liveLayers(w liveWindow, f figures) {
	ns := w.nodeSlots
	slots := float64(w.slots)
	g := w.reg
	for _, k := range []string{"sim.events_per_node_slot", "sim.queue_len_max", "step.outside.us_per_node_slot",
		"transport.dropped_per_node_slot", "core.delivery_ms_p50", "core.delivery_ms_p90"} {
		f.set(k, 0)
	}
	for _, c := range stepClasses {
		f.set("step."+c+".per_node_slot", 0)
		f.set("step."+c+".us_per_node_slot", 0)
	}
	var chordMsgs, datMsgs, replies float64
	for k, v := range g {
		typ, ok := cutSeries(k, "dat_transport_messages_total", "type")
		if !ok {
			continue
		}
		if isDat(typ) {
			datMsgs += v
		} else {
			chordMsgs += v
		}
		if len(typ) > 6 && typ[len(typ)-6:] == ":reply" {
			replies += v
		}
	}
	f.set("transport.chord_msgs_per_node_slot", perNodeSlot(chordMsgs, ns))
	f.set("transport.dat_msgs_per_node_slot", perNodeSlot(datMsgs, ns))
	f.set("transport.replies_per_node_slot", perNodeSlot(replies, ns))
	coreLayers(f, g, ns, slots)
	f.set("core.queue_hiwater_bytes", w.queueMax)
	height := 0
	for _, sp := range w.spans {
		if !sp.Demand && sp.Height+1 > height {
			height = sp.Height + 1
		}
	}
	f.set("core.tree_height_max", float64(height))
	f.set("core.tick_phase_spread_ms", p.phaseSpread())
	frames := g.family("dat_transport_messages_total")
	f.set("wire.frames_per_node_slot", perNodeSlot(frames, ns))
	f.set("wire.bytes_per_frame", ratio(g.series("rpcudp_wire_bytes_total", "dir", "rx"), frames))
	f.set("wire.fallback_share", ratio(g.family("rpcudp_wire_fallback_total"), frames))
	f.set("rpcudp.retransmits_per_node_slot", perNodeSlot(g.family("dat_transport_retransmits_total"), ns))
	f.set("rpcudp.send_errors_per_slot", ratio(g.family("dat_transport_send_errors_total"), slots))
	f.set("rpcudp.decode_errors_per_slot", ratio(g.family("dat_transport_decode_errors_total"), slots))
	runtimeLayers(f, w.rt0, w.rt1, ns, slots)
	f.set("host.probe_factor", w.factor)
	cpuFigures(f, w.profile, ns, w.factor)
}

// cutSeries splits `name{label="value"}` and returns value.
func cutSeries(series, name, label string) (string, bool) {
	prefix := name + "{" + label + `="`
	if len(series) <= len(prefix)+2 || series[:len(prefix)] != prefix {
		return "", false
	}
	return series[len(prefix) : len(series)-2], true
}

// runLive runs the untraced live pass, the extra set-ups for setup_s,
// and with trace a traced pass of the same seed and length.
func runLive(name string, spec liveSpec, opt runOpts) (*report, error) {
	r := &report{workload: name, seed: opt.seed, trace: opt.trace}
	p := newLivePass(name, spec, opt.seed, false)
	b, c, wu, err := p.setup()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setups := []float64{(b + c + wu).Seconds()}
	r.note("setup phases: build %.3fs converge %.3fs warmup %.3fs", b.Seconds(), c.Seconds(), wu.Seconds())
	w := p.measure(opt.slots)
	p.teardown()
	f := p.liveE2E(w, r)
	if !opt.trace {
		for k := 1; k < opt.setupReps; k++ {
			q := newLivePass(name, spec, opt.seed, false)
			b, c, wu, err := q.setup()
			if err != nil {
				return nil, fmt.Errorf("setup %d: %w", k+1, err)
			}
			q.teardown()
			setups = append(setups, (b + c + wu).Seconds())
		}
		f.set("setup_s", (&dist{xs: setups}).median())
		r.note("setup_s: median of %d set-ups %v", len(setups), roundAll(setups))
		r.values = f
		return r, nil
	}
	tp := newLivePass(name, spec, opt.seed, true)
	b, c, wu, err = tp.setup()
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	tw := tp.measure(opt.slots)
	tp.teardown()
	tr := &report{}
	tp.liveE2E(tw, tr)
	for _, e := range tr.errs {
		r.fail("traced run: %s", e)
	}
	lf := f.layerPart()
	tp.liveLayers(tw, lf)
	lf.set("setup.build_s", b.Seconds())
	lf.set("setup.converge_s", c.Seconds())
	lf.set("setup.warmup_s", wu.Seconds())
	// Live windows last a fixed wall time, so tracing cost shows as CPU.
	lf.set("trace.overhead_share", (tw.factor*tw.cpu.Seconds())/(w.factor*w.cpu.Seconds())-1)
	r.note("traced window cpu %.3fs vs untraced %.3fs (reference-host seconds)", tw.factor*tw.cpu.Seconds(), w.factor*w.cpu.Seconds())
	r.values = lf
	return r, nil
}
