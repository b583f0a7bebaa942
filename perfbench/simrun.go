package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
)

// simSpec is one simulator workload.
type simSpec struct {
	n     int
	trees int // even trees carry timestamps, odd ones known values
	slot  time.Duration
	// stretch sets chord maintenance to the slot cadence, as
	// experiments.Scale does for warm-started rings.
	stretch  bool
	dropProb float64
	overload bool
	// churn is the share of live nodes crashed at each slot start;
	// each rejoins rejoinAfter slots later and is enrolled again.
	churn       float64
	rejoinAfter int
	// query runs one closed-loop on-demand query client.
	query       bool
	queryWindow time.Duration
	// maxWarmup bounds the slots spent reaching the first full count.
	maxWarmup int
}

const (
	childTTLSlots = 3 // core.NodeConfig's default ChildTTLSlots
	queryTimeout  = 10 * time.Second
	valueMax      = 13 // value sensors return integers in [1, valueMax]
)

// Even-numbered trees carry timestamps, odd-numbered ones known
// values. Several timestamp trees per workload give the root-age
// percentiles enough samples and average over tree shapes.
func isTimeTree(j int) bool { return j%2 == 0 }

// valueTree draws a value tree for the query client.
func valueTree(rng *rand.Rand, trees int) int { return 1 + 2*rng.Intn(trees/2) }

// sensorValue is node i's known sample for value tree j.
func sensorValue(i, j int) float64 { return float64(1 + (i*7+j)%valueMax) }

// treeKeys returns the trees' rendezvous keys: evenly spaced around the
// ring from an offset hashed from the seed, so roots move between seeds
// but two trees never share their upper levels by chance. With hashed
// keys, seeds whose keys fell close together loaded the same hub nodes
// with both trees, and load imbalance swung from 1.8 to 2.8.
func treeKeys(space ident.Space, workload string, seed int64, trees int) []ident.ID {
	base := uint64(space.HashString(fmt.Sprintf("perfbench/%s/%d", workload, seed)))
	step := space.Size() / uint64(trees)
	keys := make([]ident.ID, trees)
	for j := range keys {
		keys[j] = space.Wrap(base + uint64(j)*step)
	}
	return keys
}

// rootResult is one aggregate folded at a tree root.
type rootResult struct {
	tree int
	slot int64
	at   time.Duration
	agg  core.Aggregate
}

// simPass is one setup plus (optionally) one measured window of a
// simulator workload.
type simPass struct {
	name   string
	spec   simSpec
	seed   int64
	traced bool

	c       *cluster.Cluster
	eng     *sim.Engine
	obs     *obs.Observer
	keys    []ident.ID
	keyTree map[ident.ID]int
	rng     *rand.Rand // harness randomness: churn victims, query origins

	// Sensor bookkeeping: whether the sensor ran in the current step,
	// and each node's latest timestamp-tree read phase within the slot.
	sensorRan bool
	phase     []time.Duration

	measuring bool
	results   []rootResult
	full      []bool // warm-up: tree has delivered a full count

	// Window bookkeeping, indexed by slot - firstSlot.
	firstSlot int64
	alive     []int // running nodes at each slot start
	crashed   []int // nodes crashed at each slot start
	rejoinAt  map[int64][]int

	// Query client.
	queryGen   uint64
	queryFrom  int
	queryStart sim.Time
	queryLat   dist
	queries    int64
	queryFails int64
	queryWrong []string

	tap      *simTap
	dropped0 uint64 // SimNetwork drops before the window
}

// simTap counts every delivered message and notes the first message
// type delivered within the current engine step.
type simTap struct {
	on      bool
	total   uint64
	chord   uint64
	dat     uint64
	replies uint64
	datRecv []uint64
	first   byte // 0 none, 'c' chord, 'd' dat
	fwd     transport.Tap
}

func (t *simTap) Message(from, to transport.Addr, typ string, oneWay bool) {
	if t.fwd != nil {
		t.fwd.Message(from, to, typ, oneWay)
	}
	if !t.on {
		return
	}
	t.total++
	if len(typ) > 6 && typ[len(typ)-6:] == ":reply" {
		t.replies++
	}
	if isDat(typ) {
		t.dat++
		if i := nodeIndex(to); i >= 0 && i < len(t.datRecv) {
			t.datRecv[i]++
		}
		if t.first == 0 {
			t.first = 'd'
		}
		return
	}
	t.chord++
	if t.first == 0 {
		t.first = 'c'
	}
}

// nodeIndex parses cluster addresses of the form "node/<i>".
func nodeIndex(a transport.Addr) int {
	const p = "node/"
	if len(a) <= len(p) || string(a[:len(p)]) != p {
		return -1
	}
	i, err := strconv.Atoi(string(a[len(p):]))
	if err != nil {
		return -1
	}
	return i
}

func newSimPass(name string, spec simSpec, seed int64, traced bool) *simPass {
	return &simPass{
		name: name, spec: spec, seed: seed, traced: traced,
		rng:      rand.New(rand.NewSource(seed*7919 + 17)),
		phase:    make([]time.Duration, spec.n),
		full:     make([]bool, spec.trees),
		rejoinAt: map[int64][]int{},
	}
}

// sense is every node's sensor: timestamp trees read the simulated
// clock in milliseconds, value trees return known integers. Reads of
// tree 0 also record the node's phase within the slot.
func (p *simPass) sense(node int, now time.Duration, key ident.ID) (float64, bool) {
	j, ok := p.keyTree[key]
	if !ok {
		return 0, false
	}
	p.sensorRan = true
	if isTimeTree(j) {
		if j == 0 {
			p.phase[node] = now % p.spec.slot
		}
		return float64(now) / 1e6, true
	}
	return sensorValue(node, j), true
}

// setup builds the cluster, enrolls every tree and warms up until each
// tree has delivered a full-count root result.
func (p *simPass) setup() (build, converge, warmup time.Duration, err error) {
	s := p.spec
	opts := cluster.Options{
		N: s.n, Seed: p.seed, IDs: cluster.ProbedIDs, Scheme: core.BalancedLocal,
		Local: p.sense,
	}
	if s.stretch {
		opts.StabilizeEvery = s.slot
		opts.FixFingersEvery = 4 * s.slot
		opts.PingEvery = 2 * s.slot
	}
	if s.overload {
		opts.Overload = core.OverloadConfig{Enable: true}
	}
	if p.traced {
		// Room for about two slots of hop spans.
		p.obs = obs.NewObserver(2 * s.n * s.trees)
		opts.Observer = p.obs
	}
	t0 := time.Now()
	c, err := cluster.New(opts)
	if err != nil {
		return 0, 0, 0, err
	}
	p.c, p.eng = c, c.Engine
	t1 := time.Now()
	if err := c.AwaitConverged(time.Minute); err != nil {
		return 0, 0, 0, err
	}
	p.keys = treeKeys(c.Space, p.name, p.seed, s.trees)
	p.keyTree = make(map[ident.ID]int, s.trees)
	for j, k := range p.keys {
		p.keyTree[k] = j
	}
	for i := range c.DAT {
		if err := p.enroll(i); err != nil {
			return 0, 0, 0, err
		}
	}
	p.tap = &simTap{datRecv: make([]uint64, s.n)}
	if p.obs != nil {
		p.tap.fwd = p.obs.Tap()
	}
	c.Net.SetTap(p.tap)
	t2 := time.Now()
	for k := 0; ; k++ {
		if k >= s.maxWarmup {
			return 0, 0, 0, fmt.Errorf("no full-count root result on every tree within %d slots", s.maxWarmup)
		}
		p.stepUntil(p.nextBoundary())
		if allTrue(p.full) {
			break
		}
	}
	return t1.Sub(t0), t2.Sub(t1), time.Since(t2), nil
}

func allTrue(b []bool) bool {
	for _, v := range b {
		if !v {
			return false
		}
	}
	return true
}

// enroll starts every tree on node i, with the root callback recording
// results wherever i happens to be the root.
func (p *simPass) enroll(i int) error {
	d := p.c.DAT[i]
	for j, key := range p.keys {
		j := j
		err := d.StartContinuous(key, p.spec.slot, func(slot int64, agg core.Aggregate) {
			// cluster.Crash silences a node's chord layer and endpoint
			// but its DAT timers still fire in the simulator; a crashed
			// node's self-only "root" results are not the system's.
			if p.c.DAT[i] == d && p.c.Chord[i].Running() {
				p.onRoot(j, slot, agg)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (p *simPass) onRoot(tree int, slot int64, agg core.Aggregate) {
	if !p.measuring {
		if agg.Count == uint64(p.running()) {
			p.full[tree] = true
		}
		return
	}
	p.results = append(p.results, rootResult{tree: tree, slot: slot, at: time.Duration(p.eng.Now()), agg: agg})
}

func (p *simPass) running() int {
	k := 0
	for _, n := range p.c.Chord {
		if n.Running() {
			k++
		}
	}
	return k
}

func (p *simPass) nextBoundary() sim.Time {
	// The step loops stop one nanosecond short of a boundary; count
	// that instant as the boundary itself.
	slot := sim.Time(p.spec.slot)
	return ((p.eng.Now()+1)/slot + 1) * slot
}

// stepUntil fires every event before end by calling Engine.Step; a
// sentinel one nanosecond before end stops the loop, so events due at
// end itself belong to the next slot.
func (p *simPass) stepUntil(end sim.Time) {
	done := false
	p.eng.At(end-1, func() { done = true })
	for !done && p.eng.Step() {
	}
}

// stepTimer accumulates the traced run's step attribution.
type stepTimer struct {
	count [4]uint64
	dur   [4]time.Duration
	qmax  int
}

// stepUntilTimed is stepUntil with every Step timed and classed by the
// first message delivered in it, or, when none was, by whether a
// sensor ran.
func (p *simPass) stepUntilTimed(end sim.Time, st *stepTimer) {
	done := false
	p.eng.At(end-1, func() { done = true })
	for !done {
		p.tap.first = 0
		p.sensorRan = false
		t0 := time.Now()
		if !p.eng.Step() {
			break
		}
		d := time.Since(t0)
		var class int
		switch {
		case p.tap.first == 'c':
			class = 0
		case p.tap.first == 'd':
			class = 1
		case p.sensorRan:
			class = 2
		default:
			class = 3
		}
		st.count[class]++
		st.dur[class] += d
		if l := p.eng.Len(); l > st.qmax {
			st.qmax = l
		}
	}
}

// windowOut is what one measured window yields.
type windowOut struct {
	slots     int
	nodeSlots float64
	wall      time.Duration
	cpu       time.Duration
	rt0, rt1  rtSnap
	heap      uint64
	steps     stepTimer
	profile   []byte
	reg       counters // observer deltas (traced)
	hiwater   int
	// factor scales CPU and wall figures to the reference host (probe.go).
	factor float64
}

// measure runs the window: slots whole slots, each begun with the churn
// actions, while the tap counts deliveries.
func (p *simPass) measure(slots int) windowOut {
	s := p.spec
	var w windowOut
	w.slots = slots
	p.measuring = true
	p.firstSlot = int64((p.eng.Now() + 1) / sim.Time(s.slot))
	p.tap.on = true
	// Loss starts with the window: warm-up reaches a full count on a
	// clean network, as an operator's fleet does before faults.
	p.c.Net.SetDropProb(s.dropProb)
	p.dropped0 = p.c.Net.Dropped()
	var reg0 counters
	var prof bytes.Buffer
	profiling := false
	if p.traced {
		reg0 = readRegistry(p.obs.Reg)
		profiling = pprof.StartCPUProfile(&prof) == nil
	}
	if s.query {
		p.issueQuery()
	}
	probe, err := newProber()
	if err != nil {
		panic(err) // an anonymous private mapping fails only when memory is exhausted
	}
	w.rt0 = readRuntime()
	cpu0 := cpuTime()
	t0 := time.Now()
	for k := 0; k < slots; k++ {
		slot := p.firstSlot + int64(k)
		p.churnActions(slot)
		p.alive = append(p.alive, p.running())
		end := sim.Time(slot+1) * sim.Time(s.slot)
		if p.traced {
			p.stepUntilTimed(end, &w.steps)
		} else {
			p.stepUntil(end)
		}
		if s.query && p.queryGen > 0 && p.eng.Now()-p.queryStart > sim.Time(queryTimeout) {
			p.queryFails++
			p.issueQuery()
		}
		probe.run()
	}
	w.wall = time.Since(t0) - probe.wall
	w.cpu = cpuTime() - cpu0 - probe.cpu
	w.factor = probe.factor()
	w.rt1 = readRuntime()
	p.measuring = false
	p.tap.on = false
	if profiling {
		pprof.StopCPUProfile()
		w.profile = prof.Bytes()
	}
	if p.traced {
		w.reg = readRegistry(p.obs.Reg).sub(reg0)
	}
	for _, a := range p.alive {
		w.nodeSlots += float64(a)
	}
	for _, d := range p.c.DAT {
		if h := d.OverloadStats().HiWaterBytes; h > w.hiwater {
			w.hiwater = h
		}
	}
	w.heap = liveHeap()
	return w
}

// churnActions crashes this slot's victims and rejoins the nodes whose
// downtime ended, enrolling them again.
func (p *simPass) churnActions(slot int64) {
	s := p.spec
	if s.churn <= 0 {
		p.crashed = append(p.crashed, 0)
		return
	}
	for _, i := range p.rejoinAt[slot] {
		p.c.Rejoin(i)
		if err := p.enroll(i); err != nil {
			panic(err) // enrolling a fresh node cannot find the key active
		}
	}
	delete(p.rejoinAt, slot)
	var live []int
	for i, n := range p.c.Chord {
		if n.Running() && !(p.queryGen > 0 && i == p.queryFrom) {
			live = append(live, i)
		}
	}
	x := s.churn * float64(len(live))
	k := int(x)
	if p.rng.Float64() < x-float64(k) {
		k++
	}
	for m := 0; m < k && len(live) > 0; m++ {
		r := p.rng.Intn(len(live))
		i := live[r]
		live[r] = live[len(live)-1]
		live = live[:len(live)-1]
		p.c.Crash(i)
		p.rejoinAt[slot+int64(s.rejoinAfter)] = append(p.rejoinAt[slot+int64(s.rejoinAfter)], i)
	}
	p.crashed = append(p.crashed, k)
}

// issueQuery starts the next closed-loop query from a random live node
// on a random value tree; its callback issues the one after it.
func (p *simPass) issueQuery() {
	var live []int
	for i, n := range p.c.Chord {
		if n.Running() {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return
	}
	from := live[p.rng.Intn(len(live))]
	tree := valueTree(p.rng, p.spec.trees)
	p.queryGen++
	gen := p.queryGen
	p.queryFrom = from
	p.queryStart = p.eng.Now()
	p.c.DAT[from].Query(p.keys[tree], p.spec.queryWindow, func(resp core.QueryResp, err error) {
		if gen != p.queryGen || !p.measuring {
			return // superseded by the harness timeout, or after the window
		}
		p.queries++
		if err != nil {
			p.queryFails++
		} else {
			p.queryLat.add(float64(p.eng.Now()-p.queryStart) / 1e6)
			if msg := checkValues(resp.Agg); msg != "" && len(p.queryWrong) < 5 {
				p.queryWrong = append(p.queryWrong, fmt.Sprintf("query tree %d from node %d: %s", tree, from, msg))
			}
		}
		// Zero think time; the next query is its own event so a query
		// that fails inline cannot recurse.
		p.eng.Schedule(0, p.issueQuery)
	})
}

// countLimit is the nodes a root result for window slot k may hold
// values of without counting any twice: those alive at the slot start
// plus those crashed within the child-cache TTL.
func (p *simPass) countLimit(k int) int {
	lim := p.alive[k]
	for d := 0; d <= childTTLSlots && k-d >= 0; d++ {
		lim += p.crashed[k-d]
	}
	return lim
}

// checkValues rejects an aggregate no membership could produce: every
// value is an integer in [1, valueMax], so Min and Max lie in that
// range and Sum between Count and valueMax*Count. Duplicated subtrees
// keep these true, so they hold under churn too; how far a count runs
// over the membership is measured (root_accuracy,
// core.root_overcount_share), not failed.
func checkValues(a core.Aggregate) string {
	switch {
	case a.Count == 0:
		return ""
	case a.Min < 1 || a.Max > valueMax || a.Min > a.Max:
		return fmt.Sprintf("min/max %v/%v outside [1,%d]", a.Min, a.Max, valueMax)
	case a.Sum < float64(a.Count) || a.Sum > float64(valueMax)*float64(a.Count) || a.Sum != math.Trunc(a.Sum):
		return fmt.Sprintf("sum %v impossible for count %d", a.Sum, a.Count)
	}
	return ""
}

// teardown drops the cluster so the next setup starts from a clean heap.
func (p *simPass) teardown() {
	p.c, p.eng, p.obs, p.tap = nil, nil, nil, nil
	p.results = nil
}
