package main

import (
	"fmt"
	"reflect"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/noc"
	"repro/internal/nuca"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The traced run drives a simulation itself, through public functions
// only, so it can time every call across the layer boundaries it can
// reach: core.NewSystem builds the memory system, each core is rebuilt
// with cpu.New around a timed trace generator and a timed memory system
// forwarding to System.Load/Store, and the cores are ticked in the order
// sim.System.StepRun ticks them. The fidelity check below proves the
// mirror simulates exactly what the library's own run does.

// coreSeedStride spaces the per-core trace seeds: core i's generator is
// seeded with Config.Seed + i*coreSeedStride, as sim.New seeds it.
const coreSeedStride = 0x9e37

// halted marks a core that reached its target and left the schedule.
const halted = ^uint64(0)

type timedGen struct {
	gen trace.Generator
	rec *recorder
}

func (g *timedGen) Name() string { return g.gen.Name() }

func (g *timedGen) Next(in *trace.Instr) {
	t0 := nowNs()
	g.gen.Next(in)
	g.rec.call(kNext, t0, nowNs())
}

type timedMem struct {
	sys *sim.System
	rec *recorder
}

func (m *timedMem) Load(core int, pc, addr uint64, critical bool, cycle uint64) uint64 {
	t0 := nowNs()
	done := m.sys.Load(core, pc, addr, critical, cycle)
	m.rec.call(kLoad, t0, nowNs())
	return done
}

func (m *timedMem) Store(core int, pc, addr uint64, critical bool, cycle uint64) uint64 {
	t0 := nowNs()
	done := m.sys.Store(core, pc, addr, critical, cycle)
	m.rec.call(kStore, t0, nowNs())
	return done
}

// mirror is one traced simulation.
type mirror struct {
	sys          *sim.System
	cores        []*cpu.Core
	rec          *recorder
	cycle        uint64
	measureStart uint64
	doneAt       []uint64
	wake         []uint64
}

// newMirror builds the traced twin of core.Run(o). seedStride is
// coreSeedStride except in the test that proves a wrong mirror is caught.
func newMirror(o core.Options, rec *recorder, seedStride uint64) (*mirror, error) {
	sys, err := core.NewSystem(o)
	if err != nil {
		return nil, err
	}
	cfg := sys.Config()
	m := &mirror{sys: sys, rec: rec, doneAt: make([]uint64, cfg.Cores), wake: make([]uint64, cfg.Cores)}
	mem := &timedMem{sys: sys, rec: rec}
	for i, app := range o.Apps {
		prof, err := trace.ProfileFor(app)
		if err != nil {
			return nil, err
		}
		gen, err := trace.NewAppGen(prof, cfg.Seed+uint64(i)*seedStride)
		if err != nil {
			return nil, err
		}
		cpt, err := predictor.New(cfg.CPT)
		if err != nil {
			return nil, err
		}
		c, err := cpu.New(i, cfg.CPU, &timedGen{gen: gen, rec: rec}, mem, cpt)
		if err != nil {
			return nil, err
		}
		m.cores = append(m.cores, c)
	}
	return m, nil
}

// run is sim.System.Run over the rebuilt cores: every core due at the
// current cycle ticks, in core order; a core that reaches its target
// freezes; the clock jumps to the earliest wake.
func (m *mirror) run(instr uint64) error {
	if instr == 0 {
		return nil
	}
	for i, c := range m.cores {
		c.SetTarget(instr)
		m.wake[i] = m.cycle
	}
	remaining, start := len(m.cores), m.cycle
	limit := m.sys.Config().MaxRunCycles
	for {
		next := halted
		for i, c := range m.cores {
			w := m.wake[i]
			if w <= m.cycle {
				m.rec.beginTick()
				t0 := nowNs()
				w = c.Tick(m.cycle)
				m.rec.endTick(t0, nowNs())
				if done, at := c.Done(); done {
					m.doneAt[i] = at
					w = halted
					remaining--
				}
				m.wake[i] = w
			}
			if w < next {
				next = w
			}
		}
		if remaining == 0 {
			return nil
		}
		if next > m.cycle {
			m.cycle = next
		}
		if m.cycle-start > limit {
			return fmt.Errorf("mirror: exceeded %d cycles without reaching %d instructions per core", limit, instr)
		}
	}
}

// runMeasured is sim.System.RunMeasured, phase by phase.
func (m *mirror) runMeasured(o core.Options) error {
	m.rec.beginPhase()
	t := nowNs()
	err := m.run(o.Warmup)
	m.rec.endPhase(kWarmup, t, nowNs())
	if err != nil {
		return fmt.Errorf("warmup: %w", err)
	}
	m.rec.beginPhase()
	t = nowNs()
	m.sys.ResetStats()
	for _, c := range m.cores {
		c.ResetStats()
	}
	m.measureStart = m.cycle
	err = m.run(o.InstrPerCore)
	m.rec.endPhase(kMeasure, t, nowNs())
	if err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	return nil
}

// traceSim runs o through the mirror and returns the fingerprint and the
// layer counts of its measured window.
func traceSim(o core.Options, rec *recorder, seedStride uint64) (fingerprint, layerCounts, error) {
	rec.beginPhase()
	t := nowNs()
	m, err := newMirror(o, rec, seedStride)
	rec.endPhase(kSetup, t, nowNs())
	if err != nil {
		return fingerprint{}, layerCounts{}, err
	}
	if err := m.runMeasured(o); err != nil {
		return fingerprint{}, layerCounts{}, err
	}
	rec.beginPhase()
	t = nowNs()
	fp := fingerprintOf(m.sys, m.cores, m.measureStart, m.doneAt)
	lc := countsOf(m.sys, m.cores, m.measureStart, m.doneAt)
	rec.endPhase(kSnapshot, t, nowNs())
	return fp, lc, nil
}

// fingerprint is every statistic the fidelity check compares: the LLC,
// DRAM, NoC, directory and wear state of the measured window, and each
// core's committed count, finish cycle and memory counters.
type fingerprint struct {
	LLC        nuca.Stats
	DRAM       dram.Stats
	NoC        noc.Stats
	Dir        coherence.Stats
	DirLines   int
	BankWrites []uint64
	MaxFrame   []uint64
	Committed  []uint64
	Finish     []uint64 // cycles from the measurement start
	Counters   []sim.CoreCounters
}

func fingerprintOf(sys *sim.System, cores []*cpu.Core, measureStart uint64, doneAt []uint64) fingerprint {
	wear := sys.LLC().Wear()
	fp := fingerprint{
		LLC:      sys.LLC().Stats(),
		DRAM:     sys.DRAM().Stats(),
		NoC:      sys.Mesh().Stats(),
		Dir:      sys.Directory().Stats(),
		DirLines: sys.Directory().TrackedLines(),
	}
	for b := 0; b < sys.Config().LLC.NumBanks; b++ {
		fp.BankWrites = append(fp.BankWrites, wear.BankWrites(b))
		fp.MaxFrame = append(fp.MaxFrame, wear.MaxFrameWrites(b))
	}
	for i, c := range cores {
		fp.Committed = append(fp.Committed, c.Stats().Committed)
		fp.Finish = append(fp.Finish, doneAt[i]-measureStart)
		fp.Counters = append(fp.Counters, sys.Counters(i))
	}
	return fp
}

// referenceSim is the untraced twin of traceSim: the library's own
// core.NewSystem + RunMeasured, fingerprinted from the live System.
func referenceSim(o core.Options) (fingerprint, sim.Result, error) {
	sys, err := core.NewSystem(o)
	if err != nil {
		return fingerprint{}, sim.Result{}, err
	}
	res, err := sys.RunMeasured(o.Warmup, o.InstrPerCore)
	if err != nil {
		return fingerprint{}, sim.Result{}, err
	}
	cores := make([]*cpu.Core, len(o.Apps))
	doneAt := make([]uint64, len(o.Apps))
	var last uint64
	for i := range cores {
		cores[i] = sys.Core(i)
		_, doneAt[i] = cores[i].Done()
		last = max(last, doneAt[i])
	}
	// The measured window ends at the last core's finish, MeasuredCycles
	// after it began.
	measureStart := last - res.MeasuredCycles
	return fingerprintOf(sys, cores, measureStart, doneAt), res, nil
}

// fidelity returns nil when the traced run simulated exactly what the
// untraced one did, and otherwise names the first statistic that differs.
// untraced and traced are fingerprints, or for a suite unit (whose
// untraced run returns only a Report) reportPrints.
func fidelity(untraced, traced any) error {
	uv, tv := reflect.ValueOf(untraced), reflect.ValueOf(traced)
	for i := 0; i < uv.NumField(); i++ {
		if !reflect.DeepEqual(uv.Field(i).Interface(), tv.Field(i).Interface()) {
			return fmt.Errorf("traced run differs in %s: untraced %v, traced %v",
				uv.Type().Field(i).Name, uv.Field(i).Interface(), tv.Field(i).Interface())
		}
	}
	return nil
}

// reportPrint is the part of a fingerprint a sim.Result also carries.
type reportPrint struct {
	LLC            nuca.Stats
	Counters       []sim.CoreCounters
	DRAMReads      uint64
	DRAMWrites     uint64
	NoCHops        uint64
	LLCWrites      uint64
	MeasuredCycles uint64
}

func (fp fingerprint) reportPrint() reportPrint {
	rp := reportPrint{
		LLC:        fp.LLC,
		Counters:   fp.Counters,
		DRAMReads:  fp.DRAM.Reads,
		DRAMWrites: fp.DRAM.Writes,
		NoCHops:    fp.NoC.TotalHops,
	}
	for _, w := range fp.BankWrites {
		rp.LLCWrites += w
	}
	for _, f := range fp.Finish {
		rp.MeasuredCycles = max(rp.MeasuredCycles, f)
	}
	return rp
}

func reportPrintOf(r sim.Result) reportPrint {
	return reportPrint{
		LLC:            r.LLC,
		Counters:       r.PerCore,
		DRAMReads:      r.Energy.DRAMReads,
		DRAMWrites:     r.Energy.DRAMWrites,
		NoCHops:        r.Energy.NoCHops,
		LLCWrites:      r.Energy.LLCWrites,
		MeasuredCycles: r.MeasuredCycles,
	}
}

// layerCounts are the work counts of one or more measured windows, read
// from the layers' own Stats accessors. They add across simulations.
type layerCounts struct {
	Sims          uint64
	TLBHits       uint64
	TLBMisses     uint64
	Accesses      uint64 // loads + stores reaching L1
	L1Misses      uint64
	L2Misses      uint64
	DirOps        uint64
	DirLines      uint64
	LLC           nuca.Stats
	NoC           noc.Stats
	DRAM          dram.Stats
	WearWrites    uint64
	Imbalance     float64 // summed over simulations
	PredCorrect   uint64
	PredIncorrect uint64
	PredConflicts uint64
	ROBFull       uint64
	CoreCycles    uint64 // measured cycles summed over cores
}

func countsOf(sys *sim.System, cores []*cpu.Core, measureStart uint64, doneAt []uint64) layerCounts {
	dir := sys.Directory().Stats()
	lc := layerCounts{
		Sims:       1,
		DirOps:     dir.ReadMisses + dir.WriteMisses + dir.Shootdowns,
		DirLines:   uint64(sys.Directory().TrackedLines()),
		LLC:        sys.LLC().Stats(),
		NoC:        sys.Mesh().Stats(),
		DRAM:       sys.DRAM().Stats(),
		WearWrites: sys.LLC().Wear().TotalWrites(),
		Imbalance:  sys.LLC().Wear().WriteImbalance(),
	}
	for i, c := range cores {
		ts := sys.TLB(i).Stats()
		lc.TLBHits += ts.Hits
		lc.TLBMisses += ts.Misses
		ctr := sys.Counters(i)
		lc.Accesses += ctr.Loads + ctr.Stores
		lc.L1Misses += ctr.L1Misses
		lc.L2Misses += ctr.L2Misses
		ps := c.Predictor().Stats()
		lc.PredCorrect += ps.Correct
		lc.PredIncorrect += ps.Incorrect
		lc.PredConflicts += ps.Conflicts
		lc.ROBFull += c.Stats().ROBFullCycles
		lc.CoreCycles += doneAt[i] - measureStart
	}
	return lc
}
