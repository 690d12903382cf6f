package dram

import (
	"testing"
	"testing/quick"
)

func mem() *Memory { return MustNew(DefaultConfig()) }

func TestNewRejectsBadConfig(t *testing.T) {
	base := DefaultConfig()
	mutate := []func(*Config){
		func(c *Config) { c.SchedulerRows = 0 },
		func(c *Config) { c.Channels = 3 },
		func(c *Config) { c.RanksPerChan = 0 },
		func(c *Config) { c.BanksPerRank = 6 },
		func(c *Config) { c.RowBytes = 100 },
		func(c *Config) { c.LineBytes = 0 },
		func(c *Config) { c.TCAS = 0 },
		func(c *Config) { c.TBurst = 0 },
	}
	for i, f := range mutate {
		cfg := base
		f(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestBanksCount(t *testing.T) {
	if got := mem().Banks(); got != 4*2*8 {
		t.Errorf("Banks = %d, want 64", got)
	}
}

func TestColdAccessIsRowMiss(t *testing.T) {
	m := mem()
	done := m.Access(0, 0, false)
	cfg := m.Config()
	want := cfg.TCtrl + cfg.TRCD + cfg.TCAS + cfg.TBurst
	if done != want {
		t.Errorf("cold access latency %d, want %d", done, want)
	}
	if m.Stats().RowMisses != 1 {
		t.Errorf("stats = %+v, want one row miss", m.Stats())
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SchedulerRows = 1 // plain open-page: any other row conflicts
	m := MustNew(cfg)
	m.Access(0, 0, false) // opens row 0 of bank 0
	s0 := m.Stats()
	if s0.RowMisses != 1 {
		t.Fatalf("setup: %+v", s0)
	}

	// Same row, much later (no queueing): hit.
	t1 := uint64(100000)
	hitDone := m.Access(0, t1, false) - t1

	// Different row, same bank: conflict. A row is RowBytes of
	// channel-interleaved lines apart in this mapping; construct an address
	// with the same channel+bank bits but different row bits.
	rowStride := cfg.LineBytes * uint64(cfg.Channels) * uint64(cfg.RanksPerChan*cfg.BanksPerRank) * (cfg.RowBytes / cfg.LineBytes)
	t2 := uint64(200000)
	confDone := m.Access(rowStride, t2, false) - t2

	if hitDone >= confDone {
		t.Errorf("row hit (%d) should be faster than conflict (%d)", hitDone, confDone)
	}
	s := m.Stats()
	if s.RowHits != 1 || s.RowConflicts != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestBankQueueing(t *testing.T) {
	m := mem()
	a := m.Access(0, 0, false)
	b := m.Access(0, 0, false) // same bank, same cycle: must queue
	if b <= a {
		t.Errorf("second access (%d) must finish after first (%d)", b, a)
	}
	if m.Stats().QueueCycles == 0 {
		t.Error("expected queueing cycles")
	}
}

func TestChannelParallelism(t *testing.T) {
	m := mem()
	// Adjacent lines map to different channels; simultaneous accesses
	// should not queue on each other.
	a := m.Access(0, 0, false)
	b := m.Access(64, 0, false)
	if a != b {
		t.Errorf("parallel channel accesses finished at %d and %d, want equal", a, b)
	}
	if m.Stats().QueueCycles != 0 {
		t.Error("cross-channel accesses should not queue")
	}
}

func TestPostedWritesDoNotBlockReads(t *testing.T) {
	mR, mW := mem(), mem()
	// Baseline: a read on a fresh bank.
	base := mR.Access(0, 1000, false)
	// A posted write just before the read must not delay it: the FR-FCFS
	// controller drains writes into idle slots.
	mW.Access(0, 0, true)
	got := mW.Access(0, 1000, false)
	// The write opened the row, so the read can only get *faster* (row hit).
	if got > base {
		t.Errorf("read after posted write finished at %d, want <= %d", got, base)
	}
	if mW.Stats().QueueCycles != 0 {
		t.Error("posted write must not queue reads")
	}
}

// Reads queue only while their bank is really booked: a read issued after
// the booking ended pays nothing, an early read fills the idle gap before a
// future booking, and a read that collides with one waits it out in full.
func TestReadQueueingWithinWindowOnly(t *testing.T) {
	m := mem()
	cfg := m.Config()
	missLat := cfg.TCtrl + cfg.TRCD + cfg.TCAS + cfg.TBurst
	first := m.Access(0, 1000, false) // books addr 0's bank from 1045
	lateStart := first + 500
	if done := m.Access(1<<20, lateStart, false); done-lateStart > cfg.TCtrl+cfg.TRP+cfg.TRCD+cfg.TCAS+cfg.TBurst {
		t.Errorf("late read paid spurious queueing: latency %d", done-lateStart)
	}
	// Same bank (and channel) as addr 0, a different row: the early read
	// fits before the booking at 1045.
	if done := m.Access(4<<20, 0, false); done != missLat {
		t.Errorf("early read finished at %d, want %d (fills the idle gap)", done, missLat)
	}
	if m.Stats().QueueCycles != 0 {
		t.Errorf("queue cycles %d, want 0", m.Stats().QueueCycles)
	}
	// Starting 20 cycles into the first read's booking, a read waits for
	// the bank to free.
	if done := m.Access(8<<20, 1020, false); done <= first {
		t.Errorf("colliding read finished at %d, not after the booking it collides with (%d)", done, first)
	}
	if m.Stats().QueueCycles == 0 || m.Stats().OutOfOrder < 2 {
		t.Errorf("stats %+v: want queueing and out-of-order arrivals recorded", m.Stats())
	}
}

// Advance lets the bank and bus calendars drop ended bookings without
// changing a completion: an advanced memory and an unadvanced one agree on
// every read.
func TestAdvanceDoesNotChangeCompletions(t *testing.T) {
	a, b := mem(), mem()
	var now uint64
	for i := uint64(0); i < 3000; i++ {
		now += i % 7
		a.Advance(now)
		addr, at := (i*2654435761)%(1<<24)&^63, now+(i*37)%400
		if x, y := a.Access(addr, at, i%5 == 0), b.Access(addr, at, i%5 == 0); x != y {
			t.Fatalf("request %d: advanced memory completes at %d, unadvanced at %d", i, x, y)
		}
	}
	if a.Stats() != b.Stats() || a.Stats().OutOfOrder == 0 {
		t.Errorf("stats differ or saw no out-of-order arrivals: %+v vs %+v", a.Stats(), b.Stats())
	}
}

func TestReadWriteCounters(t *testing.T) {
	m := mem()
	m.Access(0, 0, false)
	m.Access(64, 0, true)
	m.Access(128, 0, true)
	s := m.Stats()
	if s.Reads != 1 || s.Writes != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestResetStats(t *testing.T) {
	m := mem()
	m.Access(0, 0, false)
	m.ResetStats()
	if m.Stats() != (Stats{}) {
		t.Error("stats not zeroed")
	}
}

func TestDecodeCoversAllBanksAndChannels(t *testing.T) {
	m := mem()
	chans := map[int]bool{}
	banks := map[int]bool{}
	for la := uint64(0); la < 4096; la++ {
		ch, bk, _ := m.decode(la * 64)
		chans[ch] = true
		banks[bk] = true
		if ch < 0 || ch >= m.cfg.Channels {
			t.Fatalf("channel %d out of range", ch)
		}
		if bk < 0 || bk >= m.Banks() {
			t.Fatalf("bank %d out of range", bk)
		}
		// Bank index must embed its channel.
		if bk/(m.cfg.RanksPerChan*m.cfg.BanksPerRank) != ch {
			t.Fatalf("bank %d not in channel %d", bk, ch)
		}
	}
	if len(chans) != 4 || len(banks) != 64 {
		t.Errorf("coverage: %d channels, %d banks; want 4, 64", len(chans), len(banks))
	}
}

// Property: completion is strictly after issue and at least the minimum
// (controller + CAS + burst), and time never flows backwards for a bank.
func TestAccessLatencyLowerBoundProperty(t *testing.T) {
	m := mem()
	cfg := m.Config()
	minLat := cfg.TCtrl + cfg.TCAS + cfg.TBurst
	f := func(addr uint64, gap uint16, write bool) bool {
		now := uint64(0)
		done := m.Access(addr, now+uint64(gap), write)
		return done >= now+uint64(gap)+minLat
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: hits+misses+conflicts == reads+writes.
func TestRowOutcomeAccountingProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		m := mem()
		for i, a := range addrs {
			m.Access(uint64(a), uint64(i*10), i%3 == 0)
		}
		s := m.Stats()
		return s.RowHits+s.RowMisses+s.RowConflicts == s.Reads+s.Writes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
