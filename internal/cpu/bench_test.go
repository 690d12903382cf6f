package cpu

import (
	"testing"

	"repro/internal/predictor"
	"repro/internal/trace"
)

// ringGen replays a canned instruction slice cyclically, so the benchmark
// times the core model alone rather than trace generation.
type ringGen struct {
	instrs []trace.Instr
	pos    int
}

func (g *ringGen) Name() string { return "ring" }
func (g *ringGen) Next(in *trace.Instr) {
	*in = g.instrs[g.pos]
	g.pos++
	if g.pos == len(g.instrs) {
		g.pos = 0
	}
}

// latMem answers every load after a fixed latency, with stores accepted
// from the store buffer, and records nothing.
type latMem struct{ load, store uint64 }

func (m latMem) Load(core int, pc, addr uint64, critical bool, cycle uint64) uint64 {
	return cycle + m.load
}

func (m latMem) Store(core int, pc, addr uint64, critical bool, cycle uint64) uint64 {
	return cycle + m.store
}

// BenchmarkCoreTick measures one Core.Tick (issue pending, commit,
// dispatch) over a canned mcf stream with Table I's ROB and a fixed
// 30-cycle memory, so loads overlap and the ROB fills as in a real run.
// One op is one ticked cycle; idle cycles the wake hint skips are not
// ticked, as in sim.Run.
func BenchmarkCoreTick(b *testing.B) {
	src, err := trace.NewAppGen(trace.MustProfile("mcf"), 1)
	if err != nil {
		b.Fatal(err)
	}
	gen := &ringGen{instrs: make([]trace.Instr, 1<<16)}
	for i := range gen.instrs {
		src.Next(&gen.instrs[i])
	}
	c := MustNew(0, DefaultConfig(), gen, latMem{load: 30, store: 2}, predictor.MustNew(predictor.DefaultConfig()))
	var cycle uint64
	tick := func() {
		if next := c.Tick(cycle); next > cycle {
			cycle = next
		} else {
			cycle++
		}
	}
	for i := 0; i < 1<<17; i++ { // warm the ROB, pending list and CPT
		tick()
	}
	committed := c.Stats().Committed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.StopTimer()
	b.ReportMetric(float64(c.Stats().Committed-committed)/float64(b.N), "instr/op")
}
