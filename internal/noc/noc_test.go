package noc

import (
	"testing"
	"testing/quick"
)

func mesh4() *Mesh { return MustNew(DefaultConfig()) }

func TestNewRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{Width: 0, Height: 4, HopLatency: 2, CtrlOccupancy: 1, DataOccupancy: 4},
		{Width: 4, Height: -1, HopLatency: 2, CtrlOccupancy: 1, DataOccupancy: 4},
		{Width: 4, Height: 4, HopLatency: 0, CtrlOccupancy: 1, DataOccupancy: 4},
		{Width: 4, Height: 4, HopLatency: 2, CtrlOccupancy: 0, DataOccupancy: 4},
		{Width: 4, Height: 4, HopLatency: 2, CtrlOccupancy: 1, DataOccupancy: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestHopsManhattan(t *testing.T) {
	m := mesh4()
	cases := []struct {
		from, to, want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 4, 1},
		{0, 5, 2},
		{0, 15, 6},
		{3, 12, 6},
		{5, 10, 2},
	}
	for _, c := range cases {
		if got := m.Hops(c.from, c.to); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.from, c.to, got, c.want)
		}
		if got := m.Hops(c.to, c.from); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d (symmetry)", c.to, c.from, got, c.want)
		}
	}
}

func TestTraverseLocalIsFree(t *testing.T) {
	m := mesh4()
	if got := m.Traverse(5, 5, 100, 1); got != 100 {
		t.Errorf("local traverse arrived at %d, want 100", got)
	}
	if m.Stats().Messages != 0 {
		t.Error("local access should not count as a network message")
	}
}

func TestTraverseUncontendedLatency(t *testing.T) {
	m := mesh4()
	// 0 -> 15 is 6 hops at 2 cycles each.
	if got := m.Traverse(0, 15, 0, 1); got != 12 {
		t.Errorf("arrival %d, want 12", got)
	}
	s := m.Stats()
	if s.Messages != 1 || s.TotalHops != 6 || s.StallCycles != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestTraverseLinkContention(t *testing.T) {
	m := mesh4()
	// Two messages over the same first link (0 -> 1) at the same cycle with
	// occupancy 4: the second must wait for the link.
	a := m.Traverse(0, 1, 0, 4)
	b := m.Traverse(0, 1, 0, 4)
	if a != 2 {
		t.Errorf("first arrival %d, want 2", a)
	}
	if b != 6 { // departs at 4 (link busy 0..3), +2 hop latency
		t.Errorf("second arrival %d, want 6", b)
	}
	if m.Stats().StallCycles != 4 {
		t.Errorf("stall cycles %d, want 4", m.Stats().StallCycles)
	}
}

func TestDisjointPathsNoContention(t *testing.T) {
	m := mesh4()
	a := m.Traverse(0, 1, 0, 4)
	b := m.Traverse(4, 5, 0, 4) // different row, disjoint links
	if a != 2 || b != 2 {
		t.Errorf("arrivals %d,%d, want 2,2", a, b)
	}
	if m.Stats().StallCycles != 0 {
		t.Error("disjoint paths should not stall")
	}
}

func TestXYRoutingDeterministicPath(t *testing.T) {
	// From 0 (0,0) to 10 (2,2): XY goes east twice then south twice. Verify
	// by occupying the east links and seeing the message stall.
	m := mesh4()
	m.Traverse(0, 2, 0, 10) // links 0->1 busy 0..9 and 1->2 busy 2..11
	arr := m.Traverse(0, 10, 0, 1)
	// Link 0->1 frees at 10: depart 10, arrive tile 1 at 12. Link 1->2
	// frees at 12: depart 12, arrive 14. Then two south hops: 16, 18.
	if arr != 18 {
		t.Errorf("arrival %d, want 18", arr)
	}
}

func TestFarFutureReservationDoesNotStall(t *testing.T) {
	m := mesh4()
	// A message departing at 500 reserves link 0->1 far in the future.
	m.Traverse(0, 1, 500, 4)
	// An earlier message slips through the idle gap without stalling.
	if arr := m.Traverse(0, 1, 0, 1); arr != 2 {
		t.Errorf("arrival %d, want 2 (idle-gap backfill)", arr)
	}
	if m.Stats().StallCycles != 0 {
		t.Error("far-future reservation must not stall earlier traffic")
	}
	if got := m.Stats().OutOfOrder; got != 1 {
		t.Errorf("OutOfOrder = %d, want 1", got)
	}
}

// A message that collides with a booking waits for all of it, however long
// the backlog: there is no cap on a stall.
func TestCollidingMessageWaitsInFull(t *testing.T) {
	m := mesh4()
	for i := 0; i < 20; i++ {
		m.Traverse(0, 1, 100, 4) // link 0->1 booked [100,180)
	}
	if arr := m.Traverse(0, 1, 110, 4); arr != 182 {
		t.Errorf("arrival %d, want 182 (departs when the 80-cycle backlog ends)", arr)
	}
}

// Advance lets the link calendars drop ended bookings without changing an
// arrival: an advanced mesh and an unadvanced one agree on every message.
func TestAdvanceDoesNotChangeArrivals(t *testing.T) {
	a, b := mesh4(), mesh4()
	var now uint64
	for i := uint64(0); i < 3000; i++ {
		now += i % 3
		a.Advance(now)
		from, to, start := int(i*7%16), int(i*11%16), now+(i*37)%50
		if x, y := a.DataTraverse(from, to, start), b.DataTraverse(from, to, start); x != y {
			t.Fatalf("message %d: advanced mesh arrives at %d, unadvanced at %d", i, x, y)
		}
	}
	if a.Stats() != b.Stats() || a.Stats().OutOfOrder == 0 {
		t.Errorf("stats differ or saw no out-of-order arrivals: %+v vs %+v", a.Stats(), b.Stats())
	}
}

func TestCtrlAndDataTraverse(t *testing.T) {
	m := mesh4()
	m.CtrlTraverse(0, 1, 0)
	m.DataTraverse(0, 1, 0)
	if m.Stats().Messages != 2 {
		t.Errorf("messages %d, want 2", m.Stats().Messages)
	}
}

func TestMinLatency(t *testing.T) {
	m := mesh4()
	if got := m.MinLatency(0, 15); got != 12 {
		t.Errorf("MinLatency = %d, want 12", got)
	}
}

func TestTraversePanicsOnBadTile(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mesh4().Traverse(0, 16, 0, 1)
}

func TestResetStats(t *testing.T) {
	m := mesh4()
	m.Traverse(0, 15, 0, 1)
	m.ResetStats()
	if m.Stats() != (Stats{}) {
		t.Error("stats not zeroed")
	}
}

// Property: arrival time is monotone in start time and never earlier than
// start + contention-free latency.
func TestTraverseProperties(t *testing.T) {
	f := func(from, to uint8, start uint32) bool {
		m := mesh4()
		f0, t0 := int(from%16), int(to%16)
		arr := m.Traverse(f0, t0, uint64(start), 1)
		if arr < uint64(start)+m.MinLatency(f0, t0) {
			return false
		}
		// A fresh mesh is uncontended, so arrival must equal the minimum.
		return arr == uint64(start)+m.MinLatency(f0, t0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: total hops recorded equals Manhattan distance summed over
// messages.
func TestHopAccountingProperty(t *testing.T) {
	f := func(pairs []uint8) bool {
		m := mesh4()
		var want uint64
		for i := 0; i+1 < len(pairs); i += 2 {
			a, b := int(pairs[i]%16), int(pairs[i+1]%16)
			m.Traverse(a, b, 0, 1)
			want += uint64(m.Hops(a, b))
		}
		return m.Stats().TotalHops == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPrecomputedRoutesMatchXY pins the construction-time route table to
// the XY routing contract it memoises: every (from, to) route has exactly
// Hops(from, to) links, each link index is in range, and the X dimension is
// fully routed before the Y dimension (East/West links never follow a
// North/South link).
func TestPrecomputedRoutesMatchXY(t *testing.T) {
	m := mesh4()
	for from := 0; from < m.Tiles(); from++ {
		for to := 0; to < m.Tiles(); to++ {
			pair := from*m.Tiles() + to
			route := m.routeLinks[m.routeStart[pair]:m.routeStart[pair+1]]
			if len(route) != m.Hops(from, to) {
				t.Fatalf("route %d->%d has %d links, want %d hops", from, to, len(route), m.Hops(from, to))
			}
			sawY := false
			tile := from
			for _, li := range route {
				if int(li) < 0 || int(li) >= m.tiles*int(numDirs) {
					t.Fatalf("route %d->%d link index %d out of range", from, to, li)
				}
				if int(li)/int(numDirs) != tile {
					t.Fatalf("route %d->%d departs link %d from tile %d, want %d", from, to, li, int(li)/int(numDirs), tile)
				}
				dir := Direction(int(li) % int(numDirs))
				switch dir {
				case East:
					tile++
				case West:
					tile--
				case South:
					tile += m.cfg.Width
				case North:
					tile -= m.cfg.Width
				}
				if dir == North || dir == South {
					sawY = true
				} else if sawY {
					t.Fatalf("route %d->%d routes X after Y (not XY order)", from, to)
				}
			}
			if tile != to {
				t.Fatalf("route %d->%d ends at tile %d", from, to, tile)
			}
		}
	}
}
