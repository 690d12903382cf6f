package main

import (
	"bytes"
	"compress/gzip"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3.5, 1.25, 9, 7}, [3]float64{1.8125, 5.25, 8.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	}
	for _, c := range cases {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be defined")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/cache.(*Cache).LookupFrame", "repro/internal/sim.(*System).walk"}, "cache"},
		// The directory's Go map is charged to coherence, hash included.
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess2_fast64",
			"repro/internal/coherence.(*Directory).ReadAcquire", "repro/internal/sim.(*System).acquire"}, "coherence"},
		{[]string{"runtime.memhash64", "runtime.mapassign_fast64", "repro/internal/coherence.(*Directory).Release"}, "coherence"},
		// Clock reads and digests the benchmark makes are its own.
		{[]string{"runtime.nanotime1", "runtime.nanotime", "time.Since", "main.nowNs", "main.(*timedGen).Next",
			"repro/internal/cpu.(*Core).dispatch"}, "bench"},
		{[]string{"", "runtime.nanotime1", "main.nowNs"}, "bench"},
		{[]string{"crypto/sha256.block", "crypto/sha256.(*digest).Write", "main.digest"}, "bench"},
		// The generator called through the benchmark's wrapper is trace.
		{[]string{"repro/internal/trace.(*AppGen).Next", "main.(*timedGen).Next"}, "trace"},
		// Other runtime work is runtime, even when the simulator asked.
		{[]string{"runtime.mallocgc", "repro/internal/sim.NewWindowed"}, "runtime"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{nil, "runtime"},
		// A standard-library leaf belongs to its simulator caller.
		{[]string{"math.Log", "repro/internal/rram.(*Wear).lifetimeYears"}, "rram"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestFoldProfileShares(t *testing.T) {
	sp := foldProfile([]profSample{
		{[]string{"repro/internal/cpu.(*Core).Tick"}, 50},
		{[]string{"runtime.mapaccess1_fast64", "repro/internal/coherence.(*Directory).StateOf"}, 20},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, 30},
		{[]string{"runtime.nanotime1", "main.nowNs"}, 100},
	})
	if got := sp.share("cpu"); got != 0.5 {
		t.Errorf("cpu share %v, want 0.5 (bench frames leave the base)", got)
	}
	if got := sp.share("coherence"); got != 0.2 {
		t.Errorf("coherence share %v, want 0.2", got)
	}
	if sp.gcNs != 30 || sp.share("runtime") != 0.3 {
		t.Errorf("gc %d ns, runtime share %v; want 30, 0.3", sp.gcNs, sp.share("runtime"))
	}
	if got := sp.benchShare(); got != 0.5 {
		t.Errorf("bench share %v, want 0.5", got)
	}
}

// pb is a protobuf writer for the hand-built profile below.
type pb struct{ bytes.Buffer }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	p.WriteByte(byte(v))
}

func (p *pb) uint(field int, v uint64) { p.varint(uint64(field)<<3 | wireVarint); p.varint(v) }

func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | wireBytes)
	p.varint(uint64(len(b)))
	p.Write(b)
}

func (p *pb) packed(field int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.varint(v)
	}
	p.bytes(field, q.Bytes())
}

func TestParseProfile(t *testing.T) {
	names := []string{"", "internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess2_fast64",
		"repro/internal/coherence.(*Directory).ReadAcquire", "main.main"}
	var prof pb
	// One sample: location 1 (a map lookup inlined into its wrapper),
	// then the directory, then main. Values: count, CPU ns.
	var s pb
	s.packed(1, 1, 2, 3)
	s.packed(2, 1, 10_000_000)
	prof.bytes(2, s.Bytes())
	for loc, fns := range [][]uint64{{1, 2}, {3}, {4}} {
		var l pb
		l.uint(1, uint64(loc+1))
		for _, f := range fns {
			var line pb
			line.uint(1, f)
			line.uint(2, 7)
			l.bytes(4, line.Bytes())
		}
		prof.bytes(4, l.Bytes())
	}
	for id := 1; id < len(names); id++ {
		var f pb
		f.uint(1, uint64(id))
		f.uint(2, uint64(id))
		prof.bytes(5, f.Bytes())
	}
	for _, n := range names {
		prof.bytes(6, []byte(n))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()

	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || samples[0].value != 10_000_000 || !reflect.DeepEqual(samples[0].stack, names[1:]) {
		t.Fatalf("parsed %+v", samples)
	}
	if l := layerOf(samples[0].stack); l != "coherence" {
		t.Errorf("map lookup under the directory folded to %q", l)
	}
	if _, err := parseProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("a truncated profile parsed without error")
	}
}

func TestSelfTime(t *testing.T) {
	r := newRecorder(0)
	r.beginPhase()
	r.beginTick()
	r.call(kNext, 110, 130)
	r.call(kLoad, 140, 190)
	r.endTick(100, 200)
	r.beginTick()
	r.call(kStore, 310, 315)
	r.endTick(300, 320)
	r.endPhase(kMeasure, 0, 1000)

	tick := r.aggs[kTick]
	if tick.Count != 2 || tick.TotalNs != 120 || tick.SelfNs != 120-75 {
		t.Errorf("tick agg %+v: want 2 spans, 120 ns total, 45 ns self", tick)
	}
	if m := r.aggs[kMeasure]; m.TotalNs != 1000 || m.SelfNs != 1000-120 {
		t.Errorf("phase agg %+v: want 1000 ns total, 880 self", m)
	}
	if got := r.selfNsPerCall(kTick); got != 22.5 {
		t.Errorf("tick self per call %v, want 22.5", got)
	}
	if n := r.aggs[kLoad]; n.Count != 1 || n.SelfNs != 50 || n.Hist[6] != 1 {
		t.Errorf("load agg %+v: want one 50 ns span in bucket 6", n)
	}
	var total recorder
	total.merge(r)
	total.merge(r)
	if total.aggs[kTick].SelfNs != 90 || len(total.kept) != 2*len(r.kept) {
		t.Errorf("merge: tick self %d, kept %d", total.aggs[kTick].SelfNs, len(total.kept))
	}
}

// shortOptions shrinks a workload's windows so a test simulation takes
// milliseconds.
func shortOptions(o core.Options) core.Options {
	o.Warmup, o.InstrPerCore = 3000, 6000
	return o
}

func TestFidelityCatchesPerturbedMirror(t *testing.T) {
	w, _ := workloadByName("llc-resident")
	o := shortOptions(singleOptions(w, 3))
	ref, res, err := referenceSim(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(res, cores); err != nil {
		t.Fatalf("reference output check: %v", err)
	}
	fp, lc, err := traceSim(o, newRecorder(0), coreSeedStride)
	if err != nil {
		t.Fatal(err)
	}
	if err := fidelity(ref, fp); err != nil {
		t.Fatalf("faithful mirror rejected: %v", err)
	}
	if lc.Sims != 1 || lc.LLC != ref.LLC {
		t.Errorf("layer counts disagree with the fingerprint: %+v", lc)
	}
	wrong, _, err := traceSim(o, newRecorder(0), coreSeedStride+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fidelity(ref, wrong); err == nil {
		t.Fatal("a mirror with the wrong per-core seeds passed the fidelity check")
	}
}

func TestSuiteUnitFidelity(t *testing.T) {
	units := suiteOptions(5).units()
	if len(units) != 2*len(core.Policies()) {
		t.Fatalf("%d units, want two workloads under every policy", len(units))
	}
	for _, u := range []core.Unit{units[0], units[len(units)-1]} { // Naive, Private
		u.Opts = shortOptions(u.Opts)
		rep, err := core.RunUnit(u)
		if err != nil {
			t.Fatal(err)
		}
		fp, _, err := traceSim(u.Opts, newRecorder(0), coreSeedStride)
		if err != nil {
			t.Fatal(err)
		}
		if err := fidelity(reportPrintOf(rep.Result), fp.reportPrint()); err != nil {
			t.Errorf("%s: %v", u.ID, err)
		}
		wrong, _, _ := traceSim(u.Opts, newRecorder(0), coreSeedStride+1)
		if fidelity(reportPrintOf(rep.Result), wrong.reportPrint()) == nil {
			t.Errorf("%s: perturbed mirror passed", u.ID)
		}
	}
}

func TestOptionsFollowSeed(t *testing.T) {
	for _, w := range workloads {
		gen := func(seed uint64) any {
			if w.pool == nil {
				return suiteOptions(seed).units()
			}
			return singleOptions(w, seed)
		}
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: one seed gave different inputs", w.name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: two seeds gave the same inputs", w.name)
		}
	}
	// Every seed runs the same app multiset, so host time is comparable
	// across seeds.
	w, _ := workloadByName("dram-stream")
	count := func(apps []string) map[string]int {
		m := map[string]int{}
		for _, a := range apps {
			m[a]++
		}
		return m
	}
	a, b := singleOptions(w, 1), singleOptions(w, 2)
	if !reflect.DeepEqual(count(a.Apps), count(b.Apps)) || len(a.Apps) != cores {
		t.Errorf("app multisets differ: %v vs %v", a.Apps, b.Apps)
	}
	for _, app := range a.Apps {
		if app == "omnetpp" || app == "xalancbmk" {
			t.Errorf("dram-stream runs %s", app)
		}
	}
	// Every seed's suite pairs mixes holding 11 high-intensity apps
	// between them (WL1 has the fewest, 3, and WL6 the most, 8).
	for seed := uint64(0); seed < 20; seed++ {
		in := suiteOptions(seed)
		h0, _, _ := in.workloads[0].Intensities()
		h1, _, _ := in.workloads[1].Intensities()
		if len(in.workloads) != 2 || in.workloads[0].Name == in.workloads[1].Name || h0+h1 != 11 {
			t.Errorf("seed %d: suite workloads %v, want two distinct with 11 high-intensity apps", seed, in.workloads)
		}
	}
}

func TestOutputCheck(t *testing.T) {
	o := shortOptions(singleOptions(workloads[0], 1))
	r1, err := core.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := core.Run(o)
	if err := checkResult(r1.Result, cores); err != nil {
		t.Fatalf("identities fail on a real run: %v", err)
	}
	d1, _ := digest(r1.Result)
	d2, _ := digest(r2.Result)
	if d1 != d2 {
		t.Errorf("repeat digests differ: %s vs %s", d1, d2)
	}

	rep := newReport()
	oc := &outputCheck{rep: rep}
	oc.check(0, "a", r1.Result)
	oc.check(0, "a", r2.Result)
	bad := r2.Result
	bad.LLC.Fills++
	if checkResult(bad, cores) == nil {
		t.Error("an extra fill passed the identities")
	}
	oc.check(0, "a", bad)
	changed := r2.Result
	changed.MeanIPC *= 1.5
	oc.check(0, "a", changed)
	if rep.res.Attempted != 4 || rep.res.Failed != 2 {
		t.Errorf("attempted %d failed %d, want 4 and 2", rep.res.Attempted, rep.res.Failed)
	}
	if !strings.Contains(strings.Join(rep.notes, "\n"), "differs from the first run") {
		t.Error("a changed digest was not reported")
	}
	unarmed := r2.Result
	unarmed.IPC = append([]float64(nil), unarmed.IPC...)
	unarmed.IPC[3] = 0
	if checkResult(unarmed, cores) == nil {
		t.Error("a core that never armed passed")
	}
}
