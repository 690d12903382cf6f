package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped profile.proto message. The
// benchmark reads it in-process with the small decoder below (the standard
// library has none), keeping only what folding by package needs: each
// sample's CPU time and its stack of function names, leaf first.

type profSample struct {
	stack []string // function names, leaf first, inlined frames expanded
	value int64    // CPU nanoseconds (the last sample value)
}

// protobuf wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c := p.b[0]
		p.b = p.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// field reads one field's key and, for length-delimited fields, its bytes;
// varint fields return their value.
func (p *pbuf) field() (num int, wire int, val uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case wireVarint:
		val, err = p.varint()
	case wireI64:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		p.b = p.b[8:]
	case wireI32:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		p.b = p.b[4:]
	case wireBytes:
		var n uint64
		if n, err = p.varint(); err != nil {
			return 0, 0, 0, nil, err
		}
		if uint64(len(p.b)) < n {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		data, p.b = p.b[:n], p.b[n:]
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	return num, wire, val, data, err
}

// uints decodes a repeated integer field, packed or not.
func uints(wire int, val uint64, data []byte, dst []uint64) ([]uint64, error) {
	if wire == wireVarint {
		return append(dst, val), nil
	}
	q := pbuf{data}
	for len(q.b) > 0 {
		v, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// parseProfile decodes a gzipped profile.proto into samples.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, values []uint64 }
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	p := pbuf{raw}
	for len(p.b) > 0 {
		num, _, _, data, err := p.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s rawSample
			q := pbuf{data}
			for len(q.b) > 0 {
				n, w, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = uints(w, v, d, s.locs)
				case 2:
					s.values, err = uints(w, v, d, s.values)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, _, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					l := pbuf{d}
					for len(l.b) > 0 {
						ln, _, lv, _, err := l.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, _, v, _, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			fns := locFuncs[loc]
			if len(fns) == 0 {
				ps.stack = append(ps.stack, "") // unsymbolised (e.g. vDSO)
			}
			for _, f := range fns {
				idx := funcNames[f]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: string index %d out of range", idx)
				}
				ps.stack = append(ps.stack, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// modulePrefix is the import path prefix of the simulator's packages.
const modulePrefix = "repro/internal/"

// pkgOf returns the import path of a function name such as
// "repro/internal/cache.(*Cache).Lookup" or "runtime.mapaccess2_fast64".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// isRuntimeFrame reports whether fn belongs to the Go runtime or the
// standard library the runtime and the clock read through.
func isRuntimeFrame(fn string) bool {
	pkg := pkgOf(fn)
	return fn == "" || pkg == "runtime" || pkg == "time" || strings.HasPrefix(pkg, "internal/") ||
		strings.HasPrefix(pkg, "runtime/")
}

// isMapFrame reports whether fn implements a Go map operation (or hashes a
// map key).
func isMapFrame(fn string) bool {
	return pkgOf(fn) == "internal/runtime/maps" || strings.HasPrefix(fn, "runtime.map") ||
		strings.HasPrefix(fn, "runtime.memhash") || strings.HasPrefix(fn, "runtime.aeshash")
}

// gcRoots are the runtime entry points whose samples are garbage
// collection work.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.GC"}

// Layer names the profile folds into besides the simulator's packages.
const (
	layerRuntime = "runtime" // the Go runtime: scheduler, allocator, GC
	layerBench   = "bench"   // the benchmark's own frames: spans, clocks, checks
)

// layerOf charges one sample's stack (leaf first) to a layer: the
// simulator package its leaf frame belongs to, named without the module
// prefix. A runtime map frame is charged to the package that called the
// map, so the coherence directory's Go map counts as coherence. Other
// runtime frames count as runtime unless the benchmark's own code called
// them (clock reads, digests), which counts as bench.
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return layerRuntime
	}
	leaf := stack[0]
	if strings.HasPrefix(leaf, modulePrefix) {
		return layerName(leaf)
	}
	// The first caller outside the runtime decides who asked for the work.
	caller := ""
	for _, fn := range stack {
		if !isRuntimeFrame(fn) {
			caller = fn
			break
		}
	}
	switch {
	case pkgOf(caller) == "main":
		return layerBench
	case isMapFrame(leaf) && strings.HasPrefix(caller, modulePrefix):
		return layerName(caller)
	case isRuntimeFrame(leaf):
		return layerRuntime
	}
	// A standard-library leaf (sort, fmt, ...) belongs to whoever called it.
	for _, fn := range stack {
		if pkgOf(fn) == "main" {
			return layerBench
		}
		if strings.HasPrefix(fn, modulePrefix) {
			return layerName(fn)
		}
	}
	return layerRuntime
}

// layerName maps a simulator function to its package's last element.
func layerName(fn string) string {
	pkg := strings.TrimPrefix(pkgOf(fn), modulePrefix)
	if i := strings.IndexByte(pkg, '/'); i >= 0 {
		pkg = pkg[:i]
	}
	return pkg
}

func isGC(stack []string) bool {
	for _, fn := range stack {
		for _, g := range gcRoots {
			if fn == g {
				return true
			}
		}
	}
	return false
}

// layerSplit is a profile folded by layer.
type layerSplit struct {
	ns     map[string]int64 // CPU ns per layer
	gcNs   int64            // CPU ns of garbage collection (also inside runtime)
	simNs  int64            // CPU ns of every layer but bench: the simulator's share base
	benchN int64            // CPU ns of the benchmark's own frames
}

func foldProfile(samples []profSample) layerSplit {
	sp := layerSplit{ns: map[string]int64{}}
	for _, s := range samples {
		l := layerOf(s.stack)
		sp.ns[l] += s.value
		if l == layerBench {
			sp.benchN += s.value
			continue
		}
		sp.simNs += s.value
		if isGC(s.stack) {
			sp.gcNs += s.value
		}
	}
	return sp
}

// share is a layer's part of the simulator's CPU time: the benchmark's own
// frames are left out of the base, so the shares describe the simulator
// as an untraced run would spend its time, less the tracer's perturbation.
func (sp layerSplit) share(layer string) float64 {
	if sp.simNs == 0 {
		return 0
	}
	return float64(sp.ns[layer]) / float64(sp.simNs)
}

// benchShare is the benchmark's own part of all profiled CPU time.
func (sp layerSplit) benchShare() float64 {
	if all := sp.simNs + sp.benchN; all > 0 {
		return float64(sp.benchN) / float64(all)
	}
	return 0
}
