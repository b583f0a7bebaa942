package main

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a tiny protobuf writer for building synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *pb) uint(field int, x uint64) {
	p.varint(uint64(field)<<3 | 0)
	p.varint(x)
}

func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(field int, xs []uint64) {
	var q pb
	for _, x := range xs {
		q.varint(x)
	}
	p.bytes(field, q.b)
}

// synthProfile encodes a CPU profile whose samples have the given
// stacks (innermost first) and CPU values, one location per frame.
// Odd samples use packed repeated fields and even ones unpacked, as
// runtime/pprof does depending on length.
func synthProfile(t *testing.T, stacks [][]string, cpu []int64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	idx := map[string]uint64{}
	str := func(s string) uint64 {
		if i, ok := idx[s]; ok {
			return i
		}
		strs = append(strs, s)
		idx[s] = uint64(len(strs) - 1)
		return idx[s]
	}
	var p pb
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var q pb
		q.uint(1, vt[0])
		q.uint(2, vt[1])
		p.bytes(1, q.b)
	}
	funcID := map[string]uint64{}
	var nextID uint64 = 1
	for si, stack := range stacks {
		var locs []uint64
		for _, fn := range stack {
			id, ok := funcID[fn]
			if !ok {
				id = nextID
				nextID++
				funcID[fn] = id
				var f pb
				f.uint(1, id)
				f.uint(2, str(fn))
				p.bytes(5, f.b)
				var line pb
				line.uint(1, id)
				var loc pb
				loc.uint(1, id)
				loc.bytes(4, line.b)
				p.bytes(4, loc.b)
			}
			locs = append(locs, id)
		}
		var s pb
		if si%2 == 1 {
			s.packed(1, locs)
			s.packed(2, []uint64{1, uint64(cpu[si])})
		} else {
			for _, l := range locs {
				s.uint(1, l)
			}
			s.uint(2, 1)
			s.uint(2, uint64(cpu[si]))
		}
		p.bytes(2, s.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestProfileAttribution(t *testing.T) {
	stacks := [][]string{
		{"repro/internal/sim.(*Engine).siftDown", "repro/internal/sim.(*Engine).Step", "main.(*simPass).stepUntil"},
		{"runtime.mallocgc", "runtime.newobject", "repro/internal/core.(*Node).tickContinuous"},
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/chord.(*Node).Fingers"},
		{"internal/runtime/syscall.Syscall6", "syscall.sendto", "internal/poll.(*FD).WriteTo", "repro/internal/rpcudp.(*Endpoint).write"},
		{"repro/internal/ident.Space.Hash", "repro/internal/chord.(*Node).Lookup"},
		{"repro/internal/wire.(*Encoder).Uvarint", "repro/internal/rpcudp.(*Endpoint).write"},
		{"main.main"},
		{"repro.(*Peer).Query"},
		{"repro/internal/transport.(*SimNetwork).dispatch", "repro/internal/core.(*Node).send"},
	}
	cpu := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	samples, err := parseProfile(synthProfile(t, stacks, cpu))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("parsed %d samples, want %d", len(samples), len(stacks))
	}
	for i, s := range samples {
		if len(s.stack) != len(stacks[i]) || s.stack[0] != stacks[i][0] || s.cpu != time.Duration(cpu[i]) {
			t.Fatalf("sample %d = %v %v, want %v %v", i, s.stack, s.cpu, stacks[i], cpu[i])
		}
	}
	got := attributeCPU(samples)
	want := map[string]time.Duration{
		"sim": 10, "runtime_malloc": 20, "runtime_gc": 70, "syscall": 50,
		"other": 60 + 80 + 90, "wire": 70, "transport": 100,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("bucket %s = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected bucket %s", k)
		}
	}
}

func TestParseRuntimeProfile(t *testing.T) {
	// A profile written by runtime/pprof must parse; which functions it
	// samples depends on timing, so only success is checked.
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); {
		x++
	}
	pprof.StopCPUProfile()
	if _, err := parseProfile(buf.Bytes()); err != nil {
		t.Fatalf("parse runtime profile: %v", err)
	}
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Fatal("garbage parsed")
	}
}
