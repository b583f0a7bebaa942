package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
	"time"
)

// profSample is one CPU-profile sample: its call stack, innermost frame
// first, and the CPU time it stands for.
type profSample struct {
	stack []string
	cpu   time.Duration
}

// parseProfile decodes the gzipped protobuf that runtime/pprof writes,
// keeping only what module attribution needs: each sample's function
// names (inlined frames expanded, innermost first) and its CPU value.
func parseProfile(b []byte) ([]profSample, error) {
	if len(b) == 0 {
		return nil, errors.New("empty profile")
	}
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type location struct{ funcs []uint64 }
	var (
		strs       []string
		sampleType [][2]int64 // (type, unit) string indexes
		rawSamples []struct{ locs, vals []uint64 }
		locs       = map[uint64]location{}
		funcName   = map[uint64]int64{}
	)
	err = pbFields(raw, func(field int, wire int, v uint64, sub []byte) error {
		switch field {
		case 1: // sample_type
			var t [2]int64
			err := pbFields(sub, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = int64(v)
				}
				return nil
			})
			sampleType = append(sampleType, t)
			return err
		case 2: // sample
			var s struct{ locs, vals []uint64 }
			err := pbFields(sub, func(f, w int, v uint64, p []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, p)
				case 2:
					s.vals = appendVarints(s.vals, w, v, p)
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location
			var id uint64
			var loc location
			err := pbFields(sub, func(f, _ int, v uint64, p []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(p, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							loc.funcs = append(loc.funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = loc
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(sub, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i >= 0 && i < int64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	valIdx := len(sampleType) - 1
	for i, t := range sampleType {
		if str(t[0]) == "cpu" {
			valIdx = i
		}
	}
	out := make([]profSample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		if valIdx < 0 || valIdx >= len(rs.vals) {
			continue
		}
		var stack []string
		for _, id := range rs.locs {
			for _, fid := range locs[id].funcs {
				stack = append(stack, str(funcName[fid]))
			}
		}
		out = append(out, profSample{stack: stack, cpu: time.Duration(int64(rs.vals[valIdx]))})
	}
	return out, nil
}

// pbFields walks one protobuf message, calling fn for every field with
// its number, wire type, varint value (wire type 0) or payload
// (wire type 2).
func pbFields(b []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return errors.New("unsupported wire type")
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated integer field in either encoding:
// one varint per field (wire type 0) or a packed run (wire type 2).
func appendVarints(dst []uint64, wire int, v uint64, packed []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

// attributeCPU sums sample CPU by bucket.
func attributeCPU(samples []profSample) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range samples {
		out[bucketOf(s.stack)] += s.cpu
	}
	return out
}

// bucketOf charges one stack (innermost frame first):
//   - runtime frames at the top of the stack doing GC work, or a GC
//     worker anywhere, go to runtime_gc; allocation there to
//     runtime_malloc;
//   - a stack passing through a system-call wrapper goes to syscall;
//   - otherwise the innermost repro/internal/<module> frame names the
//     module, with modules outside the listed buckets, the root repro
//     package, and stacks with no repro frame charged to other.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if !isRuntime(fn) {
			break
		}
		switch {
		case isGC(fn):
			return "runtime_gc"
		case isMalloc(fn):
			return "runtime_malloc"
		}
	}
	for _, fn := range stack {
		if isSyscall(fn) {
			return "syscall"
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			mod := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				mod = rest[:i]
			}
			for _, b := range cpuBuckets {
				if b == mod {
					return mod
				}
			}
			return "other"
		}
		if strings.HasPrefix(fn, "repro.") {
			return "other"
		}
	}
	for _, fn := range stack {
		if fn == "runtime.gcBgMarkWorker" || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
			return "runtime_gc"
		}
	}
	return "other"
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/")
}

func isGC(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
		"runtime.scanstack", "runtime.greyobject", "runtime.findObject", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.sweepone", "runtime.(*mspan).sweep", "runtime.(*gcWork)",
		"runtime.wbBuf", "runtime.bulkBarrier", "runtime.deductSweepCredit"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

func isMalloc(fn string) bool {
	for _, p := range []string{"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
		"runtime.growslice", "runtime.newarray", "runtime.makemap", "runtime.(*mcache)",
		"runtime.(*mcentral)", "runtime.(*mheap)", "runtime.nextFreeFast", "runtime.memclrNoHeapPointers"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

func isSyscall(fn string) bool {
	for _, p := range []string{"syscall.", "internal/poll.", "internal/runtime/syscall.",
		"runtime/internal/syscall.", "runtime.entersyscall", "runtime.exitsyscall"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}
