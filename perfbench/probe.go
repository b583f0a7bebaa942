package main

import (
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark box is a shared 2-vCPU VM whose speed drifts with its
// neighbours' load: over ten back-to-back steady runs the same work
// cost from 125 to 206 CPU us per node-slot. A host probe, a fixed
// computation that shares no code with the repository, is timed
// between slots; CPU figures are scaled by the probe's reference time
// over its median time in the run, so they read in microseconds of the
// reference host and a change to the repository cannot move the scale.

// probeRef is the scale's reference: the probe's median time on the
// 2-vCPU x86 VM the benchmark was defined on.
const probeRef = 5 * time.Millisecond

// probeWords is the probe's table: 32 MiB, larger than the caches, so
// like the simulator it waits on memory as well as computing.
const probeWords = 4 << 20

// probeSteps is the number of dependent random read-modify-writes per
// probe.
const probeSteps = 30000

// prober times the host probe and keeps every time it measured, with
// the process CPU and wall time the probes took so measured windows
// can leave them out.
type prober struct {
	table []uint64
	x     uint64
	times []time.Duration
	cpu   time.Duration
	wall  time.Duration
}

// newProber maps the probe table outside the Go heap, so it neither
// counts in heap_bytes_per_node nor gives the collector work.
func newProber() (*prober, error) {
	b, err := syscall.Mmap(-1, 0, probeWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	t := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), probeWords)
	for i := range t {
		t[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return &prober{table: t, x: 1}, nil
}

// run times one probe: a chain of dependent random accesses.
func (p *prober) run() {
	c0 := cpuTime()
	t0 := time.Now()
	x := p.x
	for i := 0; i < probeSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j := (x >> 40) & (probeWords - 1)
		p.table[j] += x
		x ^= p.table[(j*31+7)&(probeWords-1)]
	}
	p.x = x
	d := time.Since(t0)
	p.times = append(p.times, d)
	p.wall += d
	p.cpu += cpuTime() - c0
}

// factor is the reference probe time over the run's median probe time:
// multiply a CPU figure by it to express it on the reference host.
func (p *prober) factor() float64 {
	if len(p.times) == 0 {
		return 1
	}
	ts := append([]time.Duration(nil), p.times...)
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	med := ts[len(ts)/2]
	if med <= 0 {
		return 1
	}
	return float64(probeRef) / float64(med)
}
