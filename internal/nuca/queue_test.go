package nuca

import (
	"math/rand"
	"testing"

	"repro/internal/rram"
)

// queueLLC builds the 4-bank test LLC with a write-heavy service asymmetry
// (300-cycle, 60-occupancy writes against 100-cycle, 4-occupancy reads).
func queueLLC(p Policy) *LLC {
	cfg := Config{
		Policy: p, NumBanks: 4, BankBytes: 4096, Ways: 4, LineBytes: 64,
		MeshWidth: 2, MeshHeight: 2, BankLatency: 100, WriteLatency: 300,
		BankOccupancy: 4, WriteOccupancy: 60, DirLatency: 20,
	}
	w := rram.MustNew(rram.Config{
		Banks: 4, FramesPerBank: 4096 / 64, Endurance: 1e11, ClockHz: 2.4e9, CapYears: 50,
	})
	return MustNew(cfg, w)
}

// A read that collides with booked writes waits for all of them, however
// far the backlog reaches: no request is ever served uncharged.
func TestQueueNoSlipBehindFarFutureReservation(t *testing.T) {
	l := queueLLC(SNUCA)
	for i := 0; i < 10; i++ {
		l.BankService(0, 100, true) // ten writes book [100,700)
	}
	got := l.BankService(0, 100, false)
	const wantBegin = 700
	if want := uint64(wantBegin + 100); got != want {
		t.Errorf("read behind writes completed at %d, want %d (no uncharged slip)", got, want)
	}
	q := l.Stats().Queue
	if q.ReadQueued != 1 || q.ReadWaitCycles != wantBegin-100 {
		t.Errorf("read wait accounting: %+v, want 1 read queued for %d cycles", q, wantBegin-100)
	}
}

// Occupancy conservation, observed externally: n back-to-back reads all
// arriving at cycle 0 serialise into one gapless busy stretch, so a later
// arrival begins exactly at n*occupancy.
func TestQueueOccupancyConservation(t *testing.T) {
	l := queueLLC(SNUCA)
	const n = 25
	occ := uint64(l.Config().BankOccupancy)
	lat := uint64(l.Config().BankLatency)
	for i := 0; i < n; i++ {
		got := l.BankService(0, 0, false)
		if want := uint64(i)*occ + lat; got != want {
			t.Fatalf("read %d completed at %d, want %d (serialised with charged occupancy)", i, got, want)
		}
	}
	if got := l.BankService(0, 0, false); got != n*occ+lat {
		t.Errorf("probe after %d reads completed at %d, want %d: busy cycles != charged occupancy", n, got, n*occ+lat)
	}
}

// Arrivals in time order are served in that order, as by a FIFO: each
// service begins at or after the previous booking on the bank ends and
// never before its own arrival. Arrivals in any order never overlap on a
// bank.
func TestQueueMonotoneServiceOrder(t *testing.T) {
	//lint:allow nondeterminism fixed seed: the draw only shapes arrival jitter; the ordering invariants must hold for any sequence
	rng := rand.New(rand.NewSource(7))
	readLat := uint64(100)
	writeLat := uint64(300)
	readOcc := uint64(4)
	writeOcc := uint64(60)
	for _, sorted := range []bool{true, false} {
		l := queueLLC(SNUCA)
		var tail [4]uint64
		var booked [4][][2]uint64
		start := uint64(0)
		for i := 0; i < 500; i++ {
			bank := rng.Intn(4)
			if sorted {
				start += uint64(rng.Intn(5))
			} else {
				start = uint64(rng.Intn(1000))
			}
			write := rng.Intn(3) == 0
			lat, occ := readLat, readOcc
			if write {
				lat, occ = writeLat, writeOcc
			}
			begin := l.BankService(bank, start, write) - lat
			if begin < start {
				t.Fatalf("op %d began at %d, before its arrival %d", i, begin, start)
			}
			if sorted && begin < tail[bank] {
				t.Fatalf("in-order op %d on bank %d began at %d inside the booking ending %d",
					i, bank, begin, tail[bank])
			}
			tail[bank] = max(tail[bank], begin+occ)
			for _, b := range booked[bank] {
				if begin < b[1] && b[0] < begin+occ {
					t.Fatalf("op %d on bank %d booked [%d,%d), overlapping [%d,%d)",
						i, bank, begin, begin+occ, b[0], b[1])
				}
			}
			booked[bank] = append(booked[bank], [2]uint64{begin, begin + occ})
		}
	}
}

// The op history follows each resident line through its frame: a fill
// starts the line's history with its write, and every later hit records
// the transition from the frame's previous operation.
func TestQueueOpHistoryTransitions(t *testing.T) {
	l := queueLLC(SNUCA)
	a, b := uint64(0x1000), uint64(0x2040)
	l.Fill(a, 0, false, false)   // first operation on a's line: no transition
	l.Access(a, 0, false, false) // RAW (after the fill's write)
	l.Access(a, 0, false, false) // RAR
	l.Access(a, 0, false, true)  // WAR
	l.Access(a, 0, false, true)  // WAW
	l.Fill(b, 0, false, true)    // write-allocated line: no transition
	l.Access(b, 0, false, false) // RAW
	q := l.Stats().Queue
	if q.RAR != 1 || q.WAR != 1 || q.WAW != 1 || q.RAW != 2 {
		t.Errorf("op-history = RAR:%d RAW:%d WAR:%d WAW:%d, want 1/2/1/1", q.RAR, q.RAW, q.WAR, q.WAW)
	}
	// Different words of the same line share the line's frame and history.
	l.Access(a+8, 0, false, false) // RAW: the last operation on a's line was a write
	if got := l.Stats().Queue.RAW; got != 3 {
		t.Errorf("same-line sub-word access must share history: RAW = %d, want 3", got)
	}
	// A miss touches no frame and records nothing.
	l.Access(0x9000, 0, false, false)
	if got := l.Stats().Queue; got.RAR+got.RAW+got.WAR+got.WAW != 6 {
		t.Errorf("a miss recorded a transition: %+v", got)
	}
}

func TestQueueServiceHistograms(t *testing.T) {
	l := queueLLC(SNUCA)
	for i := 0; i < 10; i++ {
		l.BankService(2, 0, false)
	}
	l.BankService(2, 0, true)
	svc := l.ServiceStats()
	if got := svc[2].Read.Total(); got != 10 {
		t.Errorf("bank 2 read samples = %d, want 10", got)
	}
	if got := svc[2].Write.Total(); got != 1 {
		t.Errorf("bank 2 write samples = %d, want 1", got)
	}
	if got := svc[0].Read.Total() + svc[0].Write.Total(); got != 0 {
		t.Errorf("untouched bank 0 has %d samples", got)
	}
}

// ResetStats clears counters and histograms (warmup boundary) but keeps
// the timing state: bank bookings and the op history carry across, like
// the NoC's link bookings.
func TestQueueResetStatsKeepsModelState(t *testing.T) {
	l := queueLLC(SNUCA)
	a := uint64(0x3000)
	l.Fill(a, 0, false, true)
	l.BankService(0, 0, true) // bank 0 booked [0, WriteOccupancy)
	l.BankService(0, 0, true) // out of order: bank 0 booked to 2*WriteOccupancy
	l.ResetStats()
	if got := l.ServiceStats()[0].Write.Total(); got != 0 {
		t.Errorf("histograms survived reset: %d samples", got)
	}
	if q := l.Stats().Queue; q != (QueueStats{}) {
		t.Errorf("queue counters survived reset: %+v", q)
	}
	// The bank is still busy from before the boundary...
	occ := uint64(l.Config().WriteOccupancy)
	lat := uint64(l.Config().BankLatency)
	if got := l.BankService(0, 0, false); got != 2*occ+lat {
		t.Errorf("post-reset read completed at %d, want %d (bookings must survive reset)", got, 2*occ+lat)
	}
	// ...and the op history remembers the pre-reset write: this hit is RAW.
	l.Access(a, 0, false, false)
	if q := l.Stats().Queue; q.RAW != 1 {
		t.Errorf("post-reset transition = %+v, want the pre-reset write remembered (RAW=1)", q)
	}
}

// Advance lets the bank calendars drop ended bookings without changing a
// single completion: two LLCs fed the same traffic, one advanced along
// with it, agree on every service.
func TestAdvanceDoesNotChangeService(t *testing.T) {
	//lint:allow nondeterminism fixed seed: the draw only shapes the arrival stream
	rng := rand.New(rand.NewSource(3))
	a, b := queueLLC(SNUCA), queueLLC(SNUCA)
	var now uint64
	for i := 0; i < 2000; i++ {
		now += uint64(rng.Intn(20))
		a.Advance(now)
		bank, start, write := rng.Intn(4), now+uint64(rng.Intn(300)), rng.Intn(4) == 0
		if x, y := a.BankService(bank, start, write), b.BankService(bank, start, write); x != y {
			t.Fatalf("request %d: advanced LLC completes at %d, unadvanced at %d", i, x, y)
		}
	}
	if x, y := a.Stats().Queue, b.Stats().Queue; x != y || x.OutOfOrder == 0 {
		t.Errorf("queue stats differ or saw no out-of-order arrivals: %+v vs %+v", x, y)
	}
}
