package sim

import (
	"testing"

	"repro/internal/nuca"
	"repro/internal/trace"
)

// benchSystem builds the full 16-core Table I system under the given policy
// with the standard cheap application mix.
func benchSystem(b *testing.B, policy nuca.Policy) *System {
	b.Helper()
	cfg := DefaultConfig(policy)
	s, err := New(cfg, benchApps(cfg.Cores))
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchApps(n int) []trace.Profile {
	names := []string{"hmmer", "mcf", "streamL", "namd"}
	out := make([]trace.Profile, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, trace.MustProfile(names[i%len(names)]))
	}
	return out
}

// BenchmarkWalk measures the bare memory-hierarchy walk — TLB, L1, L2, LLC
// probe plan, NoC traversal, DRAM on a miss — without the core model, by
// issuing loads directly into a warmed system. The address stream cycles a
// working set larger than L2 so all levels stay exercised.
func BenchmarkWalk(b *testing.B) {
	for _, pol := range []nuca.Policy{nuca.SNUCA, nuca.ReNUCA} {
		b.Run(pol.String(), func(b *testing.B) {
			s := benchSystem(b, pol)
			const n = 1 << 13
			addrs := make([]uint64, n)
			state := uint64(0x9E3779B97F4A7C15)
			for i := range addrs {
				state = state*6364136223846793005 + 1442695040888963407
				// 1MB working set per core: misses L1 often, fits the LLC.
				addrs[i] = (state & (1<<20 - 1)) &^ 63
			}
			var cycle uint64
			for i, a := range addrs { // warm the hierarchy
				s.advance(cycle)
				s.Load(i&15, 0, a, i&3 == 0, cycle)
				cycle += 4
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.advance(cycle)
				s.Load(i&15, 0, addrs[i&(n-1)], i&3 == 0, cycle)
				cycle += 4
			}
		})
	}
}

// BenchmarkSingleSim is the end-to-end per-simulation baseline the sweeps
// are floored by: one full 16-core Re-NUCA simulation (warmup + measured
// window) on a single goroutine, the unit of work the parallel harness
// fans out. The measured windows match the benchmark-suite defaults.
func BenchmarkSingleSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSystem(b, nuca.ReNUCA)
		if _, err := s.RunMeasured(40_000, 120_000); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSteadyStateWalkDoesNotAllocate pins the whole per-operation hot path
// — trace-independent Load/Store walks over a warmed hierarchy — to zero
// heap allocations per operation. The 8MB-per-core working set overflows
// each core's LLC share, so the measured window continuously exercises LLC
// evictions and fills, inclusive shootdowns, directory insert/delete churn,
// dirty write-backs and DRAM row-window turnover, not just upper-level hits.
// Walks issue open-loop, one every 16 cycles: nearly every one misses to
// DRAM, and a faster stream would oversubscribe the four channel buses
// (24 bus cycles per miss), so the reservation calendars' backlog would
// grow without bound instead of reaching a steady state.
func TestSteadyStateWalkDoesNotAllocate(t *testing.T) {
	cfg := DefaultConfig(nuca.ReNUCA)
	s, err := New(cfg, testApps(cfg.Cores))
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 20
	addrs := make([]uint64, n)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range addrs {
		state = state*6364136223846793005 + 1442695040888963407
		// ~4MB of unique lines per core across 16 cores: more than double
		// the LLC, so steady state keeps evicting.
		addrs[i] = (state & (1<<24 - 1)) &^ 63
	}
	var cycle uint64
	for i, a := range addrs { // reach steady state: fills, evictions, wear
		s.advance(cycle)
		if i&7 == 0 {
			s.Store(i&15, 0, a, false, cycle)
		} else {
			s.Load(i&15, 0, a, i&3 == 0, cycle)
		}
		cycle += 16
	}
	before := s.LLC().Stats()
	i := 0
	if got := testing.AllocsPerRun(5000, func() {
		s.advance(cycle)
		if i&7 == 0 {
			s.Store(i&15, 0, addrs[i&(n-1)], false, cycle)
		} else {
			s.Load(i&15, 0, addrs[i&(n-1)], i&3 == 0, cycle)
		}
		cycle += 16
		i++
	}); got != 0 {
		t.Errorf("steady-state walk allocates %v times per op, want 0", got)
	}
	after := s.LLC().Stats()
	if after.Fills == before.Fills {
		t.Fatal("measured window performed no LLC fills; working set too small to exercise evictions")
	}
}
