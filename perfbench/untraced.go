package main

import (
	"runtime/debug"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/sim"
)

// suiteSetupReps is how often a suite round repeats its set-up to time it:
// deriving the units and building the pool take microseconds, too short
// for one reading to be steady.
const suiteSetupReps = 64

// freshHeap starts a simulation the way a fresh process would: the last
// simulation's garbage collected and every free heap page returned to the
// OS. Otherwise set-up sometimes reuses kept pages, which must be zeroed,
// and sometimes gets new ones, which fault in later: two costs that would
// make set-up and simulation times bimodal.
func freshHeap() { debug.FreeOSMemory() }

// outputCheck holds the digests of a run's first repetition; every later
// repetition of the same seed must reproduce them.
type outputCheck struct {
	rep     *report
	digests []string
}

// check digests and tests one simulation's Result. i numbers the
// simulation within a repetition (0 for single-sim workloads, the unit
// index for the suite).
func (c *outputCheck) check(i int, label string, r sim.Result) bool {
	c.rep.res.Attempted++
	d, err := digest(r)
	if err == nil {
		err = checkResult(r, cores)
	}
	if err != nil {
		c.rep.fail("%s: %v", label, err)
		return false
	}
	if i == len(c.digests) {
		c.digests = append(c.digests, d)
		c.rep.note("digest %s %s", label, d)
		return true
	}
	if d != c.digests[i] {
		c.rep.fail("%s: digest %s differs from the first run's %s", label, d, c.digests[i])
		return false
	}
	return true
}

// untracedSingle runs a single-sim workload's simulation repeatedly for
// the measuring time: generate the Options, build the system, run the
// default windows, check the Result.
func untracedSingle(rep *report, w workloadDef, seed uint64, budget deadline) {
	oc := &outputCheck{rep: rep}
	var setups, sims []float64
	var instr uint64
	var last []modelRun
	start := nowNs()
	for budget.another(len(sims), 1e9*(median(setups)+median(sims))) {
		freshHeap()
		t0 := nowNs()
		o := singleOptions(w, seed)
		sys, err := core.NewSystem(o)
		t1 := nowNs()
		if err != nil {
			rep.res.Attempted++
			rep.fail("setup: %v", err)
			break
		}
		res, err := sys.RunMeasured(o.Warmup, o.InstrPerCore)
		t2 := nowNs()
		if err != nil {
			rep.res.Attempted++
			rep.fail("simulation: %v", err)
			break
		}
		setups = append(setups, float64(t1-t0)/1e9)
		sims = append(sims, float64(t2-t1)/1e9)
		instr += instrPerSim(len(o.Apps), o)
		oc.check(0, w.name, res)
		last = []modelRun{{res, o.Apps}}
		if len(sims) == 1 {
			rep.note("apps %v, Options.Seed %#x", o.Apps, o.Seed)
		}
	}
	wall := float64(nowNs()-start) / 1e9
	endToEnd(rep, setups, sims, instr, wall)
	modelNotes(rep, last)
}

// untracedSuite runs the policy suite the way renuca-bench does: one
// coordinator per policy, each running core.RunSuiteOn over the two
// workloads on one shared pool.
func untracedSuite(rep *report, seed uint64, budget deadline) {
	oc := &outputCheck{rep: rep}
	var setups, sims []float64
	var instr uint64
	var last []modelRun
	start := nowNs()
	for rounds := 0; budget.another(rounds, 1e9*median(sims)*float64(len(last))/workers); rounds++ {
		freshHeap()
		var in suiteInput
		var pl *pool.Pool
		for i := 0; i < suiteSetupReps; i++ {
			t0 := nowNs()
			in = suiteOptions(seed)
			pl = pool.New(workers)
			setups = append(setups, float64(nowNs()-t0)/1e9)
		}
		t1 := nowNs()
		srs := make([]core.SuiteReport, len(in.bases))
		err := pool.Coordinate(len(in.bases), func(i int) error {
			var err error
			srs[i], err = core.RunSuiteOn(pl, in.bases[i], in.workloads)
			return err
		})
		t2 := nowNs()
		if err != nil {
			rep.res.Attempted++
			rep.fail("suite: %v", err)
			break
		}
		last = last[:0]
		for _, sr := range srs {
			for _, r := range sr.Reports {
				oc.check(len(last), sr.Policy+"/"+r.Workload, r.Result)
				last = append(last, modelRun{r.Result, r.Apps})
				instr += instrPerSim(len(r.Apps), in.bases[0])
			}
		}
		// One simulation's share of a pool slot: the round's wall time
		// times the slots, over the simulations that shared them.
		sims = append(sims, float64(t2-t1)/1e9*workers/float64(len(last)))
		if rounds == 0 {
			in.note(rep)
		}
	}
	wall := float64(nowNs()-start) / 1e9
	endToEnd(rep, setups, sims, instr, wall)
	modelNotes(rep, last)
}

// endToEnd sets the untraced run's metrics.
func endToEnd(rep *report, setups, sims []float64, instr uint64, wall float64) {
	units := float64(rep.res.Attempted)
	rep.set("setup_s", median(setups), "s")
	rep.set("sim_s", median(sims), "s")
	rep.set("minstr_per_s", float64(instr)/1e6/wall, "Minstr/s")
	rep.set("units_per_s", units/wall, "sims/s")
	rep.set("peak_rss_mb", peakRSSMB(), "MB")
	q1, _, q3, _ := quartiles(sims)
	rep.note("sim_s over %d samples: median %.4f s, quartiles %.4f..%.4f s; setup_s over %d samples",
		len(sims), median(sims), q1, q3, len(setups))
}
