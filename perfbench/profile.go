package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reduces a runtime/pprof CPU profile to per-layer busy time
// using only the standard library: a minimal decoder for the fields of
// profile.proto the reduction reads, and the layer attribution rule.

// profile holds the decoded samples as stacks of function names.
type profile struct {
	// stacks[i] lists sample i's frames, innermost first, with inlined
	// frames expanded (the inlined callee before its caller).
	stacks [][]string
	// counts[i] is how many profiler ticks share sample i's stack, and
	// nanos[i] their CPU time in nanoseconds.
	counts []int64
	nanos  []int64
}

// parseProfile decodes a gzipped (or raw) profile.proto message.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName  = map[uint64]int64{}    // function id -> string index
		strtab    []string
		valueType []int64 // string index of each sample value's type
	)
	err := walkFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var typ int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typ = int64(v)
				}
				return nil
			})
			valueType = append(valueType, typ)
			return err
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var u []uint64
					if err := appendVarints(&u, w, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
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
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strtab) {
			return ""
		}
		return strtab[i]
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds].
	countCol, nanoCol := -1, -1
	for i, t := range valueType {
		switch str(t) {
		case "samples":
			countCol = i
		case "cpu":
			nanoCol = i
		}
	}
	if countCol < 0 || nanoCol < 0 {
		return nil, errors.New("profile: not a CPU profile (want samples and cpu values)")
	}
	p := &profile{}
	for _, s := range samples {
		if len(s.values) != len(valueType) {
			return nil, errors.New("profile: sample value count differs from sample types")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				stack = append(stack, str(funcName[fn]))
			}
		}
		p.stacks = append(p.stacks, stack)
		p.counts = append(p.counts, s.values[countCol])
		p.nanos = append(p.nanos, s.values[nanoCol])
	}
	return p, nil
}

// walkFields calls fn for every top-level field of a protobuf message:
// v holds varint and fixed values, b the bytes of length-delimited ones.
func walkFields(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(data[i])
			}
			data = data[8:]
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length-delimited field")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			for i := 3; i >= 0; i-- {
				v = v<<8 | uint64(data[i])
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated varint field in either encoding: one
// value per field (wire type 0) or packed (wire type 2).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Layer names the reduction reports. Every internal package the
// workloads reach that is not listed by name is summed into "other".
var reportedLayers = []string{
	"netsim", "sim", "accl", "c4p", "c4d", "rca", "steering", "telemetry",
	"plan", "job", "faults", "topo", "campaign", "session", "other", "bench",
}

const gcBackground = "runtime.gc_bg"

var namedLayer = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range reportedLayers {
		m[l] = true
	}
	return m
}()

// layerOf credits a stack to the innermost frame in the program: a
// c4/internal/<pkg> frame names its package, a frame of the root c4
// package is "session", and a frame of the benchmark itself is "bench".
// Runtime frames above it — asyncPreempt, mallocgc, write barriers — go
// to that caller. A stack with no such frame (background GC workers, the
// profiler) is gcBackground.
func layerOf(stack []string) string {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "c4/internal/"):
			pkg := fn[len("c4/internal/"):]
			if i := strings.IndexAny(pkg, "/."); i >= 0 {
				pkg = pkg[:i]
			}
			if namedLayer[pkg] {
				return pkg
			}
			return "other"
		case strings.HasPrefix(fn, "c4."):
			return "session"
		case strings.HasPrefix(fn, "main."):
			return "bench"
		}
	}
	return gcBackground
}

// isAlloc reports whether a stack is in the allocator or a GC write
// barrier, in whichever layer called it.
func isAlloc(stack []string) bool {
	for _, fn := range stack {
		switch {
		case fn == "runtime.mallocgc", fn == "runtime.growslice",
			strings.HasPrefix(fn, "runtime.gcWriteBarrier"),
			strings.HasPrefix(fn, "runtime.wbBufFlush"),
			strings.HasPrefix(fn, "runtime.bulkBarrierPreWrite"):
			return true
		}
	}
	return false
}

// layerTable is a profile reduced to layers.
type layerTable struct {
	TotalNs int64
	Samples int64            // profiler ticks
	SelfNs  map[string]int64 // by layer, including gcBackground
	AllocNs int64            // allocator and write-barrier time, in any layer
}

func reduce(p *profile) layerTable {
	t := layerTable{SelfNs: map[string]int64{}}
	for i, st := range p.stacks {
		v := p.nanos[i]
		t.TotalNs += v
		t.Samples += p.counts[i]
		t.SelfNs[layerOf(st)] += v
		if isAlloc(st) {
			t.AllocNs += v
		}
	}
	return t
}

func (t layerTable) share(ns int64) float64 {
	if t.TotalNs == 0 {
		return 0
	}
	return float64(ns) / float64(t.TotalNs)
}
