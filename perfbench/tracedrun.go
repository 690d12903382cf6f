package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/stats"
)

// A traced run repeats, for the measuring time, an untraced reference
// simulation of the seed's input followed by the traced mirror of the same
// input under a CPU profile. The reference gives the output check, the
// allocation count and the untraced time tracing.overhead divides by; the
// mirror must match it exactly (fidelity) or the run's per-layer numbers
// are withheld.

// tracedTotals accumulates a traced run.
type tracedTotals struct {
	spans     *recorder
	counts    layerCounts
	samples   []profSample
	overheads []float64 // traced ÷ untraced host time
	units     []float64 // untraced simulation host time, s
	allocB    uint64    // bytes the untraced simulations allocated
	busyFrac  []float64
	model     []modelRun
}

func newTotals() *tracedTotals { return &tracedTotals{spans: newRecorder(0)} }

// profiled runs fn under the CPU profiler and keeps the profile's samples.
func (t *tracedTotals) profiled(fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		return err
	}
	t.samples = append(t.samples, samples...)
	return nil
}

func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// tracedSingle is the traced run of a single-sim workload.
func tracedSingle(rep *report, w workloadDef, seed uint64, budget deadline, spansOut string) error {
	oc := &outputCheck{rep: rep}
	tt := newTotals()
	var pairs []float64
	for n := 0; budget.another(n, 1e9*median(pairs)); n++ {
		o := singleOptions(w, seed)
		if n == 0 {
			rep.note("apps %v, Options.Seed %#x", o.Apps, o.Seed)
		}
		freshHeap()
		a0 := allocated()
		t0 := nowNs()
		ref, res, err := referenceSim(o)
		t1 := nowNs()
		tt.allocB += allocated() - a0
		if err != nil {
			rep.res.Attempted++
			rep.fail("reference simulation: %v", err)
			break
		}
		oc.check(0, w.name, res)
		tt.model = []modelRun{{res, o.Apps}}

		freshHeap()
		rec := newRecorder(n)
		var fp fingerprint
		var lc layerCounts
		t2 := nowNs()
		err = tt.profiled(func() error {
			var err error
			fp, lc, err = traceSim(o, rec, coreSeedStride)
			return err
		})
		t3 := nowNs()
		rep.res.Attempted++
		if err == nil {
			err = fidelity(ref, fp)
		}
		if err != nil {
			rep.fail("traced simulation: %v", err)
			break
		}
		tt.spans.merge(rec)
		stats.MergeNumeric(&tt.counts, &lc)
		tt.units = append(tt.units, float64(t1-t0)/1e9)
		tt.overheads = append(tt.overheads, float64(t3-t2)/float64(t1-t0))
		pairs = append(pairs, float64(t3-t0)/1e9)
	}
	// One simulation on one goroutine neither waits for a slot nor idles.
	tt.busyFrac = []float64{1}
	return tt.finish(rep, spansOut)
}

// tracedSuite is the traced run of the policy suite. The untraced round
// drives pool.Map + core.RunUnit over the suite's units, timing each
// unit's wait for a slot and its run; the traced round mirrors every unit
// on the same pool.
func tracedSuite(rep *report, seed uint64, budget deadline, spansOut string) error {
	oc := &outputCheck{rep: rep}
	tt := newTotals()
	var rounds []float64
	for n := 0; budget.another(n, 1e9*median(rounds)); n++ {
		in := suiteOptions(seed)
		if n == 0 {
			in.note(rep)
		}
		units := in.units()
		pl := pool.New(workers)
		reports := make([]core.Report, len(units))
		starts := make([]int64, len(units))
		ends := make([]int64, len(units))

		freshHeap()
		a0 := allocated()
		t0 := nowNs()
		err := pl.Map(len(units), func(i int) error {
			starts[i] = nowNs()
			r, err := core.RunUnit(units[i])
			ends[i] = nowNs()
			reports[i] = r
			return err
		})
		t1 := nowNs()
		tt.allocB += allocated() - a0
		if err != nil {
			rep.res.Attempted++
			rep.fail("suite: %v", err)
			break
		}
		tt.model = tt.model[:0]
		var busy int64
		for i, r := range reports {
			oc.check(i, units[i].ID, r.Result)
			tt.model = append(tt.model, modelRun{r.Result, r.Apps})
			tt.spans.root(kPoolWait, t0, starts[i])
			tt.spans.root(kUnit, starts[i], ends[i])
			tt.units = append(tt.units, float64(ends[i]-starts[i])/1e9)
			busy += ends[i] - starts[i]
		}
		tt.busyFrac = append(tt.busyFrac, float64(busy)/float64(workers*(t1-t0)))

		freshHeap()
		recs := make([]*recorder, len(units))
		fps := make([]fingerprint, len(units))
		lcs := make([]layerCounts, len(units))
		t2 := nowNs()
		err = tt.profiled(func() error {
			return pl.Map(len(units), func(i int) error {
				recs[i] = newRecorder(n*len(units) + i)
				var err error
				fps[i], lcs[i], err = traceSim(units[i].Opts, recs[i], coreSeedStride)
				return err
			})
		})
		t3 := nowNs()
		rep.res.Attempted += len(units)
		if err != nil {
			rep.fail("traced suite: %v", err)
			break
		}
		for i := range units {
			if err := fidelity(reportPrintOf(reports[i].Result), fps[i].reportPrint()); err != nil {
				rep.fail("traced %s: %v", units[i].ID, err)
			}
			tt.spans.merge(recs[i])
			stats.MergeNumeric(&tt.counts, &lcs[i])
		}
		tt.overheads = append(tt.overheads, float64(t3-t2)/float64(t1-t0))
		rounds = append(rounds, float64(t3-t0)/1e9)
	}
	return tt.finish(rep, spansOut)
}

// finish sets the per-layer metrics and writes the spans.
func (tt *tracedTotals) finish(rep *report, spansOut string) error {
	rec, lc, sp := tt.spans, tt.counts, foldProfile(tt.samples)
	sims := float64(max(lc.Sims, 1))
	perSim := func(v uint64) float64 { return float64(v) / sims }
	calls := func(k kind) float64 { return float64(rec.aggs[k].Count) / sims }

	rep.set("trace.next_ns", rec.selfNsPerCall(kNext), "ns")
	rep.set("trace.calls", calls(kNext), "count")
	rep.set("cpu.tick_self_ns", rec.selfNsPerCall(kTick), "ns")
	rep.set("cpu.ticks", calls(kTick), "count")
	rep.set("cpu.rob_full_frac", ratio(lc.ROBFull, lc.CoreCycles), "ratio")
	rep.set("predictor.accuracy", ratio(lc.PredCorrect, lc.PredCorrect+lc.PredIncorrect), "ratio")
	rep.set("predictor.conflicts", perSim(lc.PredConflicts), "count")
	rep.set("sim.load_ns", rec.selfNsPerCall(kLoad), "ns")
	rep.set("sim.store_ns", rec.selfNsPerCall(kStore), "ns")
	rep.set("sim.loads", calls(kLoad), "count")
	rep.set("sim.stores", calls(kStore), "count")
	rep.set("tlb.miss_rate", ratio(lc.TLBMisses, lc.TLBHits+lc.TLBMisses), "ratio")
	rep.set("cache.l1_miss_rate", ratio(lc.L1Misses, lc.Accesses), "ratio")
	rep.set("cache.l2_miss_rate", ratio(lc.L2Misses, lc.L1Misses), "ratio")
	rep.set("coherence.ops", perSim(lc.DirOps), "count")
	rep.set("coherence.tracked_lines", perSim(lc.DirLines), "count")
	llcReads := lc.LLC.ReadHits + lc.LLC.ReadMisses
	rep.set("nuca.hit_rate", ratio(lc.LLC.ReadHits, llcReads), "ratio")
	rep.set("nuca.fallback_probe_frac", ratio(lc.LLC.FallbackProbes, llcReads+lc.LLC.Writebacks), "ratio")
	rep.set("nuca.fills", perSim(lc.LLC.Fills), "count")
	rep.set("nuca.wb_hits", perSim(lc.LLC.WritebackHits), "count")
	rep.set("nuca.slipped", perSim(lc.LLC.Queue.Slipped), "count")
	rep.set("noc.messages", perSim(lc.NoC.Messages), "count")
	rep.set("noc.hops", perSim(lc.NoC.TotalHops), "count")
	rep.set("noc.stall_per_msg", ratio(lc.NoC.StallCycles, lc.NoC.Messages), "cycles")
	dramAcc := lc.DRAM.Reads + lc.DRAM.Writes
	rep.set("dram.reads", perSim(lc.DRAM.Reads), "count")
	rep.set("dram.writes", perSim(lc.DRAM.Writes), "count")
	rep.set("dram.row_hit_rate", ratio(lc.DRAM.RowHits, dramAcc), "ratio")
	rep.set("dram.queue_per_access", ratio(lc.DRAM.QueueCycles, dramAcc), "cycles")
	rep.set("rram.writes", perSim(lc.WearWrites), "count")
	rep.set("rram.write_imbalance", lc.Imbalance/sims, "ratio")
	for _, l := range []string{"trace", "cpu", "predictor", "sim", "tlb", "cache", "coherence", "nuca", "noc", "dram", "rram", "runtime"} {
		rep.set(l+".share", sp.share(l), "ratio")
	}
	rep.set("runtime.gc_share", ratio(uint64(sp.gcNs), uint64(sp.simNs)), "ratio")
	rep.set("runtime.alloc_mb_per_sim", float64(tt.allocB)/1e6/float64(max(len(tt.units), 1)), "MB")
	poolWait := 0.0 // no pool runs on a single-sim workload
	if a := rec.aggs[kPoolWait]; a.Count > 0 {
		poolWait = float64(a.TotalNs) / float64(a.Count) / 1e9
	}
	rep.set("pool.wait_s", poolWait, "s")
	rep.set("pool.busy_frac", median(tt.busyFrac), "ratio")
	rep.set("core.unit_s", median(tt.units), "s")
	rep.set("tracing.overhead", median(tt.overheads), "ratio")
	rep.set("tracing.share", sp.benchShare(), "ratio")
	modelOf(tt.model).set(rep)
	modelNotes(rep, tt.model)
	rep.note("profile: %.2f s of CPU in %d distinct stacks", float64(sp.simNs+sp.benchN)/1e9, len(tt.samples))
	if err := rec.write(spansOut); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rep.note("spans written to %s", spansOut)
	return nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
