package dram

import "testing"

// BenchmarkDRAMAccess issues a streaming mix of reads and posted writes
// (one in four) over Table I's 4-channel DDR3, with issue times jittered
// around an advancing clock so bank and bus bookings arrive out of order,
// as LLC misses issue them.
func BenchmarkDRAMAccess(b *testing.B) {
	m := mem()
	var now uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i)
		now += k & 3
		m.Advance(now)
		m.Access(k*2654435761&(1<<28-1)&^63, now+(k*37)%200, k&3 == 0)
	}
}

func TestAccessDoesNotAllocate(t *testing.T) {
	m := mem()
	var now uint64
	for i := uint64(0); i < 4096; i++ { // warm the bank and bus calendars
		now += i & 3
		m.Advance(now)
		m.Access(i*2654435761&(1<<28-1)&^63, now+(i*37)%200, i&3 == 0)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		now += 2
		m.Advance(now)
		m.Access(now*2654435761&(1<<28-1)&^63, now+(now*37)%200, false)
	})
	if allocs != 0 {
		t.Errorf("Access allocates %.1f times per call, want 0", allocs)
	}
}
