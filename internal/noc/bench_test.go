package noc

import "testing"

// BenchmarkTraverse routes data messages between scattered tile pairs on
// Table I's 4x4 mesh, with departures jittered around an advancing clock
// so link bookings arrive out of order, as memory walks issue them.
func BenchmarkTraverse(b *testing.B) {
	m := mesh4()
	var now uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i)
		now += k & 1
		m.Advance(now)
		m.DataTraverse(int(k*7&15), int(k*11&15), now+(k*37)%50)
	}
}

func TestTraverseDoesNotAllocate(t *testing.T) {
	m := mesh4()
	var now uint64
	for i := uint64(0); i < 4096; i++ { // warm the link calendars
		now += i & 1
		m.Advance(now)
		m.DataTraverse(int(i*7&15), int(i*11&15), now+(i*37)%50)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		now++
		m.Advance(now)
		m.DataTraverse(int(now*7&15), int(now*11&15), now+(now*37)%50)
	})
	if allocs != 0 {
		t.Errorf("Traverse allocates %.1f times per call, want 0", allocs)
	}
}
