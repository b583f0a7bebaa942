package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	dat "repro"
	"repro/internal/obs"
)

// liveSpec is the loopback-UDP workload: n dat.Peers in this process.
type liveSpec struct {
	n, trees    int
	slot        time.Duration
	queryWindow time.Duration
	// stagger spreads the peers' start times uniformly over this span;
	// each peer's clock takes its epoch when it starts, so slot
	// boundaries differ from peer to peer as with separate processes.
	stagger time.Duration
}

// liveLayout seeds the ring layout: ports (hence identifiers), start
// offsets and tree names. It is fixed rather than taken from the run's
// seed: at 32 peers one layout draw moved the oldest contribution's age
// by a factor of two and load max/mean from 2.8 to 6.0, which would
// swamp any change a commit makes. The run's seed drives the query
// client and the sensor values.
const liveLayout = 1

// liveResult is one root fold observed through a StartMonitor callback.
type liveResult struct {
	tree int
	root int
	slot int64
	at   time.Duration // harness clock
	agg  dat.Aggregate
}

// livePass is one fleet: set-up and optionally one measured window.
type livePass struct {
	name   string
	spec   liveSpec
	seed   int64
	traced bool
	rng    *rand.Rand // query client: origins and trees

	t0    time.Time // harness clock origin
	peers []*dat.Peer
	obs   []*obs.Observer
	attrs []string

	mu        sync.Mutex
	results   []liveResult
	phase     []time.Duration // latest timestamp-tree read phase per peer
	fullRun   []int           // consecutive full-count results per tree
	firstAt   []bool          // tree has delivered any result
	measuring bool
}

func newLivePass(name string, spec liveSpec, seed int64, traced bool) *livePass {
	attrs := make([]string, spec.trees)
	for j := range attrs {
		attrs[j] = fmt.Sprintf("perfbench.%s.%d.tree-%d", name, liveLayout, j)
	}
	return &livePass{
		name: name, spec: spec, seed: seed, traced: traced,
		rng:     rand.New(rand.NewSource(seed*7919 + 17)),
		attrs:   attrs,
		phase:   make([]time.Duration, spec.n),
		fullRun: make([]int, spec.trees),
		firstAt: make([]bool, spec.trees),
	}
}

func (p *livePass) now() time.Duration { return time.Since(p.t0) }

// listenAddrs picks n loopback ports from the layout seed, so peer
// identifiers (hashes of the bound address) repeat. A block that is
// partly in use is skipped for the next one.
func listenAddrs(seed int64, n int) ([]string, error) {
	for attempt := 0; attempt < 16; attempt++ {
		base := 20000 + int((uint64(seed)*7919+uint64(attempt)*613)%40000)
		addrs := make([]string, n)
		ok := true
		for i := range addrs {
			addrs[i] = fmt.Sprintf("127.0.0.1:%d", base+i)
			c, err := net.ListenPacket("udp", addrs[i])
			if err != nil {
				ok = false
				break
			}
			c.Close()
		}
		if ok {
			return addrs, nil
		}
	}
	return nil, errors.New("no free loopback port block")
}

// setup starts the peers at seeded staggered offsets, each creating or
// probing into the ring and enrolling in every tree as it starts, then
// waits for every tree's first result (converge) and until every tree
// has delivered settleSlots full counts in a row (warm-up). The first
// full count alone is not enough here: the overlay is still repairing
// fingers after the last joins, and parent switches then miss or
// double-count subtrees for a slot.
func (p *livePass) setup() (build, converge, warmup time.Duration, err error) {
	s := p.spec
	addrs, err := listenAddrs(liveLayout, s.n)
	if err != nil {
		return 0, 0, 0, err
	}
	layout := rand.New(rand.NewSource(liveLayout))
	offsets := make([]time.Duration, s.n)
	for i := 1; i < s.n; i++ {
		offsets[i] = time.Duration(layout.Int63n(int64(s.stagger)))
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	p.t0 = time.Now()
	for i := 0; i < s.n; i++ {
		if d := offsets[i] - p.now(); d > 0 {
			time.Sleep(d)
		}
		if err := p.startPeer(i, addrs[i]); err != nil {
			p.teardown()
			return 0, 0, 0, err
		}
	}
	build = p.now()
	deadline := time.Now().Add(60 * time.Second)
	for !p.all(p.firstAt) {
		if time.Now().After(deadline) {
			p.teardown()
			return 0, 0, 0, errors.New("no root result on every tree within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	converge = p.now() - build
	for !p.settled() {
		if time.Now().After(deadline) {
			p.teardown()
			return 0, 0, 0, errors.New("no full-count root result on every tree within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return build, converge, p.now() - build - converge, nil
}

// settleSlots is how many consecutive full counts end the live warm-up.
const settleSlots = 4

func (p *livePass) settled() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, k := range p.fullRun {
		if k < settleSlots {
			return false
		}
	}
	return true
}

func (p *livePass) all(b []bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return allTrue(b)
}

// startPeer builds peer i with the profile datnode runs (delivery,
// batching and overload protection on, one obs.Observer), joins it and
// enrolls it in every tree.
func (p *livePass) startPeer(i int, addr string) error {
	o := obs.NewObserver(0)
	peer, err := dat.NewPeer(dat.PeerConfig{
		Listen:   addr,
		Overload: dat.OverloadConfig{Enable: true},
		Observer: o,
	})
	if err != nil {
		return err
	}
	p.peers = append(p.peers, peer)
	p.obs = append(p.obs, o)
	for j, attr := range p.attrs {
		j := j
		if isTimeTree(j) {
			peer.AddSensor(attr, func() (float64, bool) {
				t := p.now()
				if j == 0 {
					p.mu.Lock()
					p.phase[i] = t % p.spec.slot
					p.mu.Unlock()
				}
				return float64(t) / 1e6, true
			})
			continue
		}
		peer.AddSensor(attr, func() (float64, bool) { return p.value(i, j), true })
	}
	if i == 0 {
		peer.Create()
	} else if err := peer.JoinProbed(p.peers[0].Addr()); err != nil {
		return fmt.Errorf("peer %d join: %w", i, err)
	}
	for j, attr := range p.attrs {
		j := j
		if err := peer.StartMonitor(attr, p.spec.slot, func(slot int64, agg dat.Aggregate) {
			p.onRoot(j, i, slot, agg)
		}); err != nil {
			return err
		}
	}
	return nil
}

func (p *livePass) onRoot(tree, root int, slot int64, agg dat.Aggregate) {
	at := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.firstAt[tree] = true
	if agg.Count == uint64(p.spec.n) {
		p.fullRun[tree]++
	} else {
		p.fullRun[tree] = 0
	}
	if p.measuring {
		p.results = append(p.results, liveResult{tree: tree, root: root, slot: slot, at: at, agg: agg})
	}
}

// teardown stops aggregation on every peer and closes it.
func (p *livePass) teardown() {
	for _, peer := range p.peers {
		for _, attr := range p.attrs {
			peer.StopMonitor(attr)
		}
	}
	for _, peer := range p.peers {
		peer.Close()
	}
	p.peers, p.obs = nil, nil
}

// liveWindow is what one measured live window yields.
type liveWindow struct {
	start, end time.Duration
	slots      int
	nodeSlots  float64
	cpu        time.Duration
	rt0, rt1   rtSnap
	heap       uint64
	reg        counters // summed observer deltas
	perPeerDat []uint64 // dat.* messages received per peer
	queueMax   float64  // largest sampled dat_queue_bytes of any peer
	factor     float64  // host probe factor (probe.go)
	profile    []byte
	queryLat   dist
	queries    int64
	queryFails int64
	queryWrong []string
	spans      []obs.Span
}

// measure runs the window for slots slot-lengths of wall time with one
// closed-loop query client.
func (p *livePass) measure(slots int) liveWindow {
	s := p.spec
	var w liveWindow
	w.slots = slots
	w.nodeSlots = float64(s.n * slots)
	before := make([]counters, len(p.obs))
	for i, o := range p.obs {
		before[i] = readRegistry(o.Reg)
	}
	var prof bytes.Buffer
	profiling := p.traced && pprof.StartCPUProfile(&prof) == nil
	p.mu.Lock()
	p.measuring = true
	p.mu.Unlock()
	probe, err := newProber()
	if err != nil {
		panic(err) // an anonymous private mapping fails only when memory is exhausted
	}
	w.rt0 = readRuntime()
	cpu0 := cpuTime()
	w.start = p.now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.queryClient(stop, &w)
	}()
	end := w.start + time.Duration(slots)*s.slot
	for tick := 0; p.now() < end; tick++ {
		time.Sleep(min(s.slot/4, end-p.now()))
		if tick%4 == 0 {
			probe.run()
		}
		if !p.traced {
			continue
		}
		for _, o := range p.obs {
			if v := readRegistry(o.Reg)["dat_queue_bytes"]; v > w.queueMax {
				w.queueMax = v
			}
		}
	}
	w.end = p.now()
	close(stop)
	wg.Wait()
	w.cpu = cpuTime() - cpu0 - probe.cpu
	w.factor = probe.factor()
	w.rt1 = readRuntime()
	p.mu.Lock()
	p.measuring = false
	p.mu.Unlock()
	if profiling {
		pprof.StopCPUProfile()
		w.profile = prof.Bytes()
	}
	w.reg = counters{}
	for i, o := range p.obs {
		d := readRegistry(o.Reg).sub(before[i])
		w.reg.add(d)
		var recv float64
		for k, v := range d {
			if rest, ok := strings.CutPrefix(k, `dat_transport_messages_total{type="`); ok && isDat(rest) {
				recv += v
			}
		}
		w.perPeerDat = append(w.perPeerDat, uint64(recv))
		w.spans = append(w.spans, o.Spans.Snapshot()...)
	}
	w.heap = liveHeap()
	return w
}

// queryClient issues one on-demand query at a time from a random peer
// on a random value tree until stop closes; a query running at that
// moment completes first.
func (p *livePass) queryClient(stop <-chan struct{}, w *liveWindow) {
	total := p.valueTotals()
	for {
		select {
		case <-stop:
			return
		default:
		}
		i := p.rng.Intn(len(p.peers))
		j := valueTree(p.rng, p.spec.trees)
		t0 := time.Now()
		agg, err := p.peers[i].Query(p.attrs[j], p.spec.queryWindow)
		w.queries++
		if err != nil {
			w.queryFails++
			continue
		}
		w.queryLat.add(float64(time.Since(t0).Nanoseconds()) / 1e6)
		if msg := checkLive(agg, p.spec.n, total[j], false); msg != "" && len(w.queryWrong) < 5 {
			w.queryWrong = append(w.queryWrong, fmt.Sprintf("query tree %d from peer %d: %s", j, i, msg))
		}
	}
}

// value is peer i's known sample for value tree j; the seed rotates
// which peer holds which value.
func (p *livePass) value(i, j int) float64 { return sensorValue(i+int(uint64(p.seed)%1000), j) }

func (p *livePass) valueTotals() []float64 {
	total := make([]float64, p.spec.trees)
	for i := 0; i < p.spec.n; i++ {
		for j := 1; j < p.spec.trees; j += 2 {
			total[j] += p.value(i, j)
		}
	}
	return total
}

// checkLive validates a live aggregate on a fault-free fleet. Root
// results after warm-up must be exact; query answers may be partial
// (the window can close before the collection does) but never exceed
// the fleet and must be exact when complete.
func checkLive(a dat.Aggregate, n int, total float64, exact bool) string {
	if a.Count > uint64(n) {
		return fmt.Sprintf("count %d exceeds the %d peers", a.Count, n)
	}
	if exact && (a.Count != uint64(n) || a.Sum != total) {
		return fmt.Sprintf("count %d sum %v, want %d and %v", a.Count, a.Sum, n, total)
	}
	if a.Count == uint64(n) && a.Sum != total {
		return fmt.Sprintf("full count %d with sum %v, want %v", a.Count, a.Sum, total)
	}
	return checkValues(a)
}
