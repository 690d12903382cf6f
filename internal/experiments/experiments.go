// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) on the simulated 16-core CMP. Each experiment has
// a typed result and a Render method that prints the same rows/series the
// paper reports, alongside the paper's reference numbers where the paper
// states them.
//
// A Runner memoises the expensive simulation suites so experiments that
// share runs (Figure 3, Figure 11, Figure 12 and Table III all consume the
// same five policy suites) execute them once.
package experiments

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/workload"
)

// Params scales the experiments. The paper fast-forwards 2B instructions
// and measures 100M per core under gem5; these windows are sized for
// minutes-scale wall-clock on one host CPU while preserving the paper's
// qualitative results.
type Params struct {
	// InstrPerCore/Warmup drive the 16-core workload experiments.
	InstrPerCore uint64
	Warmup       uint64
	// CharInstr/CharWarmup drive the single-core characterisation runs
	// (Table II, Figures 2, 5, 7, 8, 9), which are cheap enough to run
	// much longer — long windows matter there because write-backs lag
	// fills by the L2 turnover time.
	CharInstr  uint64 //lint:allow optflow consumed by the single-core characterisation runs (RunMeasured), not Options construction
	CharWarmup uint64 //lint:allow optflow consumed by the single-core characterisation runs (RunMeasured), not Options construction
	Seed       uint64
	// Workers bounds how many simulations run concurrently across ALL
	// experiments a Runner executes (suites, characterisation, sweeps).
	// 0 means auto: RENUCA_WORKERS if set, else one worker per CPU.
	// Results are byte-identical for every worker count.
	Workers int //lint:allow optflow concurrency cap only: byte-identical results for every worker count, never reaches Options
	// The remaining fields override the corresponding core.Options
	// hardware knobs in every 16-core simulation the Runner executes
	// (zero = keep the paper's Table I configuration). Runner.options
	// applies them; a Table III variant's modification and a study's
	// swept knob still win for the value they define.
	L2Bytes                 uint64
	L3BankBytes             uint64
	ROBEntries              int
	CriticalityThresholdPct float64
	IntraBankWL             bool
	ReRAMWriteLatency       uint32
}

// DefaultParams returns the standard scale.
func DefaultParams() Params {
	return Params{
		InstrPerCore: 400_000,
		Warmup:       150_000,
		CharInstr:    3_000_000,
		CharWarmup:   800_000,
		Seed:         1,
	}
}

// ParamsFromEnv starts from DefaultParams and applies the RENUCA_INSTR,
// RENUCA_WARMUP, RENUCA_CHAR_INSTR, RENUCA_CHAR_WARMUP, RENUCA_SEED and
// RENUCA_WORKERS environment overrides, so benchmark runs can be scaled
// without editing code.
//
// The hardware knobs have overrides too: RENUCA_L2 and RENUCA_L3BANK
// (bytes), RENUCA_ROB (entries), RENUCA_THRESHOLD (criticality percent),
// RENUCA_INTRABANK_WL=1 and RENUCA_WRITE_LAT (cycles). Zero/unset keeps
// the paper's Table I configuration.
func ParamsFromEnv() Params {
	p := DefaultParams()
	get := func(name string, dst *uint64) {
		if v := os.Getenv(name); v != "" {
			if n, err := strconv.ParseUint(v, 10, 64); err == nil && n > 0 {
				*dst = n
			}
		}
	}
	get32 := func(name string, dst *uint32) {
		if v := os.Getenv(name); v != "" {
			if n, err := strconv.ParseUint(v, 10, 32); err == nil && n > 0 {
				*dst = uint32(n)
			}
		}
	}
	get("RENUCA_INSTR", &p.InstrPerCore)
	get("RENUCA_WARMUP", &p.Warmup)
	get("RENUCA_CHAR_INSTR", &p.CharInstr)
	get("RENUCA_CHAR_WARMUP", &p.CharWarmup)
	get("RENUCA_SEED", &p.Seed)
	get("RENUCA_L2", &p.L2Bytes)
	get("RENUCA_L3BANK", &p.L3BankBytes)
	if v := os.Getenv("RENUCA_ROB"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			p.ROBEntries = n
		}
	}
	if v := os.Getenv("RENUCA_THRESHOLD"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			p.CriticalityThresholdPct = f
		}
	}
	if v := os.Getenv("RENUCA_INTRABANK_WL"); v == "1" || v == "true" {
		p.IntraBankWL = true
	}
	get32("RENUCA_WRITE_LAT", &p.ReRAMWriteLatency)
	p.Workers = pool.DefaultWorkers(0)
	return p
}

// Variant is one system configuration of Table III's rows.
type Variant struct {
	Key   string
	Label string
	Mod   func(*core.Options)
}

// Variants returns the paper's four configurations: the Table I baseline
// ("Actual Results") and the three Section V-C sensitivity studies.
func Variants() []Variant {
	return []Variant{
		{Key: "actual", Label: "Actual Results", Mod: func(*core.Options) {}},
		{Key: "l2-128", Label: "L2-128KB", Mod: func(o *core.Options) { o.L2Bytes = 128 << 10 }},
		{Key: "l3-1m", Label: "L3-1MB", Mod: func(o *core.Options) { o.L3BankBytes = 1 << 20 }},
		{Key: "rob-168", Label: "ROB-168", Mod: func(o *core.Options) { o.ROBEntries = 168 }},
	}
}

// VariantByKey looks up a variant.
func VariantByKey(key string) (Variant, error) {
	for _, v := range Variants() {
		if v.Key == key {
			return v, nil
		}
	}
	return Variant{}, fmt.Errorf("experiments: unknown variant %q", key)
}

// Runner executes experiments with memoisation. It is safe for concurrent
// use: experiments may be launched from multiple goroutines, memoised
// results (the policy suites, the characterisation table, the threshold
// sweep) are computed once and shared via per-key singleflight, and all
// simulations draw from one bounded worker pool so total concurrency stays
// at P.Workers however many experiments are in flight.
type Runner struct {
	P Params
	// Log, when non-nil, receives progress lines (suites take tens of
	// seconds; the harness reports what it is doing). It may be invoked
	// from multiple goroutines but never concurrently: the Runner
	// serialises calls and prefixes each line with the suite key that
	// produced it.
	Log func(format string, args ...any)
	// Exec executes every 16-core simulation the Runner's experiments
	// dispatch: the policy suites and the ablation studies. NewRunner sets
	// it to a core.PoolRunner over the Runner's pool; the shard coordinator
	// may replace it. Every Report files positionally, so the output is
	// byte-identical whichever runs the units. Single-core
	// characterisation runs and the threshold sweep stay on the pool.
	Exec core.UnitRunner

	logMu sync.Mutex
	pool  *pool.Pool
	sims  atomic.Uint64

	suiteFlight  pool.Flight[string, map[string]core.SuiteReport]
	table2Flight pool.Flight[string, []Table2Row]
	sweepFlight  pool.Flight[string, []ThresholdPoint]
}

// NewRunner builds a Runner with the given parameters.
func NewRunner(p Params) *Runner {
	pl := pool.New(pool.DefaultWorkers(p.Workers))
	return &Runner{P: p, Exec: core.PoolRunner{Pool: pl}, pool: pl}
}

// Workers returns the size of the Runner's simulation pool.
func (r *Runner) Workers() int { return r.pool.Size() }

// Sims returns how many simulations the Runner has completed — the
// denominator-free throughput counter behind the harness's sims/sec
// reporting. Memoised reuse does not re-count.
func (r *Runner) Sims() uint64 { return r.sims.Load() }

// logf emits one progress line, serialised and prefixed with the key of
// the suite or phase that produced it so interleaved parallel progress
// stays attributable.
func (r *Runner) logf(key, format string, args ...any) {
	if r.Log == nil {
		return
	}
	r.logMu.Lock()
	defer r.logMu.Unlock()
	r.Log("[%-12s] "+format, append([]any{key}, args...)...)
}

// workloads returns the standard WL1..WL10.
func (r *Runner) workloads() []workload.Workload { return core.StandardWorkloads() }

// options resolves the Options every 16-core experiment simulation starts
// from: the policy, the measured windows, r.P.Seed and the hardware knob
// overrides (zero = Table I default, matching the Options zero value, so
// copying unconditionally changes nothing at default scale). Callers then
// set the apps and whatever their study sweeps.
func (r *Runner) options(p core.Policy) core.Options {
	o := core.DefaultOptions(p)
	o.InstrPerCore = r.P.InstrPerCore
	o.Warmup = r.P.Warmup
	o.Seed = r.P.Seed
	o.L2Bytes = r.P.L2Bytes
	o.L3BankBytes = r.P.L3BankBytes
	o.ROBEntries = r.P.ROBEntries
	o.CriticalityThresholdPct = r.P.CriticalityThresholdPct
	o.IntraBankWL = r.P.IntraBankWL
	o.ReRAMWriteLatency = r.P.ReRAMWriteLatency
	return o
}

// policyOptions resolves the complete Options for one (variant, policy)
// suite cell: r.options with the seed derived per variant, then the
// variant's modification, which wins over the overrides. The
// per-workload seed derivation on top of it happens in core.SuiteUnits.
// The seed leaves the policy out, so every policy of a variant runs the
// same instruction streams and policy comparisons are paired; the policy
// still names the cell's memo entry and unit IDs.
func (r *Runner) policyOptions(v Variant, p core.Policy) core.Options {
	o := r.options(p)
	o.Seed = core.DeriveSeed(r.P.Seed, v.Key)
	v.Mod(&o)
	return o
}

// runUnits dispatches one flat unit batch through r.Exec and counts its
// simulations. key names the study in progress lines and errors.
func (r *Runner) runUnits(key string, units []core.Unit) ([]core.Report, error) {
	r.logf(key, "dispatching %d units", len(units))
	reps, err := r.Exec.RunUnits(units)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", key, err)
	}
	if len(reps) != len(units) {
		return nil, fmt.Errorf("%s: unit runner returned %d reports for %d units", key, len(reps), len(units))
	}
	r.sims.Add(uint64(len(reps)))
	return reps, nil
}

// memoKey folds every result-affecting Params field into a Flight memo
// key. The Flights live per-Runner, but a Runner's P is exported and
// mutable between calls, and "same key, different Params" would silently
// return the other configuration's results. Keying on the resolved Params
// makes that class of stale hit impossible (keyflow enforces it
// statically). Workers is deliberately excluded: results are
// byte-identical for every worker count, so folding it in would only
// fragment the cache.
func (r *Runner) memoKey(base string) string {
	p := r.P
	return fmt.Sprintf("%s|i%d w%d ci%d cw%d s%d l2b%d l3b%d rob%d th%g wl%t lat%d",
		base, p.InstrPerCore, p.Warmup, p.CharInstr, p.CharWarmup, p.Seed,
		p.L2Bytes, p.L3BankBytes, p.ROBEntries,
		p.CriticalityThresholdPct, p.IntraBankWL, p.ReRAMWriteLatency)
}

// suiteSet runs (or returns the memoised) five-policy suite for a variant:
// one flat batch of every policy's ten workload units through r.Exec, then
// each policy's slice of the positional reports folds through
// core.AggregateSuite. Every result lands at its (policy, workload)
// position, so the suite is identical for any worker or shard count.
func (r *Runner) suiteSet(v Variant) (map[string]core.SuiteReport, error) {
	return r.suiteFlight.Do(r.memoKey(v.Key), func() (map[string]core.SuiteReport, error) {
		policies := core.Policies()
		wls := r.workloads()
		units := make([]core.Unit, 0, len(policies)*len(wls))
		for _, p := range policies {
			units = append(units, core.SuiteUnits(v.Key, r.policyOptions(v, p), wls)...)
		}
		reps, err := r.runUnits(v.Key, units)
		if err != nil {
			return nil, err
		}
		set := make(map[string]core.SuiteReport, len(policies))
		for i, p := range policies {
			set[p.String()] = core.AggregateSuite(p.String(), reps[i*len(wls):(i+1)*len(wls)])
		}
		return set, nil
	})
}
