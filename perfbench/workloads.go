package main

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// cores is the Table I core count every workload fills.
const cores = 16

// A single-sim workload runs one 16-core mix under Re-NUCA. Its pool is a
// fixed multiset of applications (each app of the class appears equally
// often, the first apps of the class in trace.AppNames order take the
// remainder), so every seed simulates the same amount and kind of work;
// the seed permutes the multiset over the cores and picks Options.Seed.
// Keeping the multiset fixed keeps host time comparable across seeds,
// which is what lets ten seeds agree within the metrics' bounds.
type workloadDef struct {
	name string
	// pool returns the applications the mix is built from; nil marks the
	// policy suite.
	pool func() []string
}

var workloads = []workloadDef{
	// Streaming/thrashing apps: nearly every L2 miss goes to DRAM, so
	// DRAM, NoC, LLC fills, wear and directory churn do the most work.
	{"dram-stream", func() []string {
		return appsWhere(func(name string, p trace.PaperStats) bool {
			return trace.Classify(p) == trace.HighIntensity && name != "omnetpp" && name != "xalancbmk"
		})
	}},
	// The two high-intensity apps whose working sets fit the LLC: LLC
	// read hits and write-back hits dominate, DRAM stays light.
	{"llc-resident", func() []string { return []string{"omnetpp", "xalancbmk"} }},
	// Low-intensity apps: trace generation, the core model and the
	// predictor dominate; nothing below L2 does real work.
	{"core-bound", func() []string {
		return appsWhere(func(_ string, p trace.PaperStats) bool {
			return trace.Classify(p) == trace.LowIntensity
		})
	}},
	// Two standard workloads under all five policies through the worker
	// pool: the only workload that runs the pool and the four other
	// policies' LLC paths.
	{"policy-suite", nil},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

func appsWhere(keep func(string, trace.PaperStats) bool) []string {
	var out []string
	for _, name := range trace.AppNames() {
		p, _ := trace.PaperTable2(name)
		if keep(name, p) {
			out = append(out, name)
		}
	}
	return out
}

// rng is splitmix64: the benchmark's inputs depend on the seed alone, never
// on a Go release's math/rand.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// singleOptions generates the one simulation a single-sim workload runs
// for seed: the app multiset permuted over the cores, Re-NUCA, the
// library's default windows, and a seed-derived Options.Seed.
func singleOptions(w workloadDef, seed uint64) core.Options {
	pool := w.pool()
	apps := make([]string, cores)
	for i := range apps {
		apps[i] = pool[i%len(pool)]
	}
	r := &rng{s: core.DeriveSeed(seed, w.name, "apps")}
	for i := len(apps) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		apps[i], apps[j] = apps[j], apps[i]
	}
	o := core.DefaultOptions(core.ReNUCA)
	o.Apps = apps
	o.Seed = core.DeriveSeed(seed, w.name)
	return o
}

// suiteInput is the policy suite's input: two standard workloads and, per
// policy, the base Options core.RunSuiteOn fans over them.
type suiteInput struct {
	workloads []workload.Workload
	bases     []core.Options
}

// suiteOptions picks two standard workloads by seed and builds every
// policy's base Options (default windows, one seed-derived base seed
// shared by all policies). The seed chooses among the pairs that hold as
// many high-intensity apps as the lightest and the heaviest mix together,
// so every seed's suite has the same memory pressure, and host time stays
// comparable across seeds.
func suiteOptions(seed uint64) suiteInput {
	std := workload.Standard(cores)
	high := make([]int, len(std))
	for i, w := range std {
		high[i], _, _ = w.Intensities()
	}
	target := slices.Min(high) + slices.Max(high)
	var pairs [][2]int
	for a := range std {
		for b := a + 1; b < len(std); b++ {
			if high[a]+high[b] == target {
				pairs = append(pairs, [2]int{a, b})
			}
		}
	}
	r := &rng{s: core.DeriveSeed(seed, "policy-suite", "workloads")}
	p := pairs[r.intn(len(pairs))]
	in := suiteInput{workloads: []workload.Workload{std[p[0]], std[p[1]]}}
	for _, pol := range core.Policies() {
		o := core.DefaultOptions(pol)
		o.Seed = core.DeriveSeed(seed, "policy-suite")
		in.bases = append(in.bases, o)
	}
	return in
}

func (in suiteInput) note(rep *report) {
	rep.note("workloads %s %v, %s %v, base seed %#x", in.workloads[0].Name, in.workloads[0].Apps,
		in.workloads[1].Name, in.workloads[1].Apps, in.bases[0].Seed)
}

// units expands the suite into the units core.RunSuiteOn would run, policy
// by policy.
func (in suiteInput) units() []core.Unit {
	var out []core.Unit
	for _, o := range in.bases {
		out = append(out, core.SuiteUnits("", o, in.workloads)...)
	}
	return out
}

// instrPerSim is the instructions one simulation of cores cores retires
// under o's windows (all cores, warmup + measured).
func instrPerSim(cores int, o core.Options) uint64 {
	return uint64(cores) * (o.Warmup + o.InstrPerCore)
}
