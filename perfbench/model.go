package main

import (
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// modelRun is one simulation's Result and the apps it ran.
type modelRun struct {
	res  sim.Result
	apps []string
}

// modelFigures are the simulated outcomes the benchmark reports as
// model.*: they move only when the model changes, never with a host-time
// optimisation. Over several simulations IPC, cycles and LLC writes are
// means and the lifetime is the minimum, as Table III takes it.
type modelFigures struct {
	meanIPC, cycles, minLifetime, llcWrites float64
}

func modelOf(runs []modelRun) modelFigures {
	var f modelFigures
	var ipcs, lifes []float64
	for _, r := range runs {
		ipcs = append(ipcs, r.res.MeanIPC)
		lifes = append(lifes, r.res.MinLifetime)
		f.cycles += float64(r.res.MeasuredCycles)
		f.llcWrites += float64(r.res.Energy.LLCWrites)
	}
	if n := float64(len(runs)); n > 0 {
		f.cycles /= n
		f.llcWrites /= n
	}
	f.meanIPC = stats.Mean(ipcs)
	f.minLifetime = stats.Min(lifes)
	return f
}

func (f modelFigures) set(rep *report) {
	rep.set("model.mean_ipc", f.meanIPC, "IPC")
	rep.set("model.cycles", f.cycles, "cycles")
	rep.set("model.min_lifetime_y", f.minLifetime, "years")
	rep.set("model.llc_writes", f.llcWrites, "count")
}

// modelNotes prints the simulated figures beside the paper's. The model is
// unvalidated apart from these figures, which come from different set-ups
// (Table II is one core alone with a 2MB LLC; Table III is the paper's
// 100M-instruction gem5 runs), so they are context and gate nothing.
func modelNotes(rep *report, runs []modelRun) {
	if len(runs) == 0 {
		return
	}
	f := modelOf(runs)
	var paperIPC, paperHit []float64
	for _, r := range runs {
		for _, a := range r.apps {
			p, _ := trace.PaperTable2(a)
			paperIPC = append(paperIPC, p.IPC)
			paperHit = append(paperHit, p.HitRate)
		}
	}
	var hits, reads uint64
	for _, r := range runs {
		hits += r.res.LLC.ReadHits
		reads += r.res.LLC.ReadHits + r.res.LLC.ReadMisses
	}
	hitRate := 0.0
	if reads > 0 {
		hitRate = float64(hits) / float64(reads)
	}
	rep.note("model.mean_ipc %.4f (paper Table II, each app alone on one core: mean IPC %.4f)", f.meanIPC, stats.Mean(paperIPC))
	rep.note("model.llc_hit_rate %.4f (paper Table II, each app alone: mean LLC hit rate %.4f)", hitRate, stats.Mean(paperHit))
	// Table III's raw minimum: the shortest bank lifetime of any mix.
	var policies []string
	minLife := map[string]float64{}
	for _, r := range runs {
		p := r.res.Policy
		if l, ok := minLife[p]; !ok || r.res.MinLifetime < l {
			if !ok {
				policies = append(policies, p)
			}
			minLife[p] = r.res.MinLifetime
		}
	}
	for _, p := range policies {
		rep.note("model.min_lifetime_y %s %.3f years (paper Table III, 16-core mixes: %.2f years)",
			p, minLife[p], experiments.PaperTable3("actual", p))
	}
	rep.note("model.cycles %.0f, model.llc_writes %.0f (no paper figure)", f.cycles, f.llcWrites)
}
