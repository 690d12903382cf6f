package coherence

import "testing"

// BenchmarkDirectory measures the steady-state cost of the directory's hot
// cycle at Table I's footprint: 65,536 tracked lines, the total capacity of
// sixteen 256KB private L2s, over a multi-programmed (unshared) population
// like the evaluated workloads. Each op retires one line (an L2 eviction's
// release or an LLC eviction's shootdown) and acquires another (a read or
// write miss), so the population stays at the bound the table is sized for.
func BenchmarkDirectory(b *testing.B) {
	const cores, tracked = 16, 1 << 16
	d := MustNewDirectory(cores, tracked)
	addrs := make([]uint64, 2*tracked)
	for i := range addrs {
		// Distinct scattered lines: an odd multiplier permutes the line
		// numbers below 2^30; the core ID sits above them as in sim.
		line := uint64(i) * 0x9E3779B1 & (1<<30 - 1)
		addrs[i] = line<<6 | uint64(i&(cores-1))<<36
	}
	for i := 0; i < tracked; i++ {
		d.ReadAcquire(addrs[i], i&(cores-1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := i & (2*tracked - 1)
		in := (i + tracked) & (2*tracked - 1)
		if i&1 == 0 {
			d.Release(addrs[out], out&(cores-1), false)
		} else {
			d.Shootdown(addrs[out])
		}
		if i&2 == 0 {
			d.ReadAcquire(addrs[in], in&(cores-1))
		} else {
			d.WriteAcquire(addrs[in], in&(cores-1))
		}
	}
	if got := d.TrackedLines(); got != tracked {
		b.Fatalf("tracked %d lines after the run, want %d", got, tracked)
	}
}
