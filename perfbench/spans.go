package main

import (
	"encoding/json"
	"math/bits"
	"os"
	"path/filepath"
	"time"
)

// epoch anchors every span timestamp. time.Since on a monotonic reading
// costs one clock read, which keeps the per-call spans cheap.
var epoch = time.Now() //lint:allow nondeterminism the benchmark measures host time

func nowNs() int64 { return int64(time.Since(epoch)) } //lint:allow nondeterminism the benchmark measures host time

// Span kinds. The phase spans wrap a whole simulation step; the per-call
// spans wrap every call across a layer boundary the benchmark can reach
// from outside the simulator.
type kind int

const (
	kSetup kind = iota
	kWarmup
	kMeasure
	kSnapshot
	kTick     // cpu.Core.Tick
	kNext     // trace.Generator.Next, inside a tick
	kLoad     // sim.System.Load, inside a tick
	kStore    // sim.System.Store, inside a tick
	kUnit     // core.RunUnit on a pool slot
	kPoolWait // a unit's wait for a pool slot
	numKinds
)

var kindNames = [numKinds]string{
	"setup", "warmup", "measure", "snapshot",
	"cpu.tick", "trace.next", "sim.load", "sim.store",
	"core.unit", "pool.wait",
}

// agg is one kind's running aggregate. Self time is the span's duration
// minus the time its child spans cover.
type agg struct {
	Count   uint64
	TotalNs int64
	SelfNs  int64
	// Hist[b] counts spans whose duration d has bits.Len64(d) == b: a log2
	// histogram, bucket b holding durations in [2^(b-1), 2^b) ns.
	Hist [64]uint64
}

func (a *agg) add(dur, self int64) {
	a.Count++
	a.TotalNs += dur
	a.SelfNs += self
	if dur < 0 {
		dur = 0
	}
	a.Hist[bits.Len64(uint64(dur))]++
}

// spanRec is one span kept whole.
type spanRec struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// sampleEvery keeps one per-call span in this many whole; phase spans are
// all kept.
const sampleEvery = 1 << 14

// recorder collects one goroutine's spans in memory. It is not safe for
// concurrent use: each simulation has its own, merged after it ends.
type recorder struct {
	run    int
	nextID uint64
	aggs   [numKinds]agg
	kept   []spanRec

	// The open phase is the parent of the ticks inside it, and the open
	// tick the parent of the calls inside it. Each accumulates its
	// children's durations and subtracts them from its own for self time.
	phaseID      uint64
	phaseChildNs int64
	tickID       uint64
	tickChildNs  int64
}

func newRecorder(run int) *recorder { return &recorder{run: run, nextID: 1} }

func (r *recorder) id() uint64 {
	id := r.nextID
	r.nextID++
	return id
}

// root records a span with no parent and no children (a pool unit, a wait).
func (r *recorder) root(k kind, start, end int64) {
	r.aggs[k].add(end-start, end-start)
	r.kept = append(r.kept, spanRec{ID: r.id(), Run: r.run, Name: kindNames[k], Start: start, End: end})
}

// beginPhase opens a phase of one simulation.
func (r *recorder) beginPhase() {
	r.phaseID = r.id()
	r.phaseChildNs = 0
}

// endPhase closes the open phase as kind k.
func (r *recorder) endPhase(k kind, start, end int64) {
	r.aggs[k].add(end-start, end-start-r.phaseChildNs)
	r.kept = append(r.kept, spanRec{ID: r.phaseID, Run: r.run, Name: kindNames[k], Start: start, End: end})
	r.phaseID = 0
}

// beginTick opens a tick span inside the open phase.
func (r *recorder) beginTick() {
	r.tickID = r.id()
	r.tickChildNs = 0
}

// endTick closes the open tick.
func (r *recorder) endTick(start, end int64) {
	d := end - start
	r.phaseChildNs += d
	r.aggs[kTick].add(d, d-r.tickChildNs)
	if r.tickID%sampleEvery == 0 {
		r.kept = append(r.kept, spanRec{ID: r.tickID, Parent: r.phaseID, Run: r.run, Name: kindNames[kTick], Start: start, End: end})
	}
}

// call records a leaf call inside the open tick.
func (r *recorder) call(k kind, start, end int64) {
	d := end - start
	r.tickChildNs += d
	id := r.id()
	r.aggs[k].add(d, d)
	if id%sampleEvery == 0 {
		r.kept = append(r.kept, spanRec{ID: id, Parent: r.tickID, Run: r.run, Name: kindNames[k], Start: start, End: end})
	}
}

// merge folds o's aggregates and kept spans into r.
func (r *recorder) merge(o *recorder) {
	for k := range r.aggs {
		a, b := &r.aggs[k], &o.aggs[k]
		a.Count += b.Count
		a.TotalNs += b.TotalNs
		a.SelfNs += b.SelfNs
		for i := range a.Hist {
			a.Hist[i] += b.Hist[i]
		}
	}
	r.kept = append(r.kept, o.kept...)
}

// selfNsPerCall is a kind's mean self time per span.
func (r *recorder) selfNsPerCall(k kind) float64 {
	a := r.aggs[k]
	if a.Count == 0 {
		return 0
	}
	return float64(a.SelfNs) / float64(a.Count)
}

// write stores the aggregates and the kept spans as JSON at path.
func (r *recorder) write(path string) error {
	type kindOut struct {
		Name string `json:"name"`
		agg
	}
	out := struct {
		Kinds []kindOut `json:"kinds"`
		Spans []spanRec `json:"spans"`
	}{Spans: r.kept}
	for k, a := range r.aggs {
		out.Kinds = append(out.Kinds, kindOut{Name: kindNames[k], agg: a})
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
