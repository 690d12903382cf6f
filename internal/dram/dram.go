// Package dram models the off-chip JEDEC DDR3 memory system of Table I:
// 4 channels x 2 ranks x 8 banks, open-page row-buffer policy, and an
// FR-FCFS-flavoured scheduler. Because the simulator resolves each memory
// access synchronously (latency-oracle style, see DESIGN.md), the FR-FCFS
// reordering window is approximated by its first-order effect: requests
// that hit the open row of a bank are served with the short CAS-only
// latency, while row misses and conflicts pay precharge/activate costs, and
// reads book their bank and their channel's data bus on reservation
// calendars (package timeline), which impose queueing delay on bursts. All
// timing parameters are expressed in CPU cycles at the 2.4GHz core clock.
package dram

import (
	"fmt"

	"repro/internal/timeline"
)

// Config parameterises the memory system.
type Config struct {
	Channels       int
	RanksPerChan   int
	BanksPerRank   int
	RowBytes       uint64 // row-buffer size per bank
	LineBytes      uint64
	TCtrl          uint64 // controller + physical-channel overhead per request
	TCAS           uint64 // CAS latency (row hit)
	TRCD           uint64 // activate-to-read (row closed)
	TRP            uint64 // precharge (row conflict adds TRP before TRCD)
	TBurst         uint64 // data-bus occupancy per 64B line
	WriteToReadGap uint64 // extra bank recovery after a write burst
	// SchedulerRows approximates the FR-FCFS reorder window: the scheduler
	// batches queued requests by row, so up to this many "recently open"
	// rows per bank behave as row hits even when requests from different
	// streams interleave in arrival order. 1 models a plain in-order
	// open-page controller.
	SchedulerRows int
}

// DefaultConfig approximates DDR3-1600 timings scaled to 2.4GHz CPU cycles
// (1ns = 2.4 cycles): CAS ~13.75ns = 33 cycles, tRCD and tRP similar, BL8 at
// 800MHz = 10ns = 24 cycles of bus time, and ~19ns (45 cycles) of memory
// controller pipeline, PHY and off-chip signalling overhead per request.
func DefaultConfig() Config {
	return Config{
		Channels:       4,
		RanksPerChan:   2,
		BanksPerRank:   8,
		RowBytes:       8 << 10,
		LineBytes:      64,
		TCtrl:          45,
		TCAS:           33,
		TRCD:           33,
		TRP:            33,
		TBurst:         24,
		WriteToReadGap: 18,
		SchedulerRows:  4,
	}
}

// Stats accumulates request counters.
type Stats struct {
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowMisses    uint64 // bank had no open row
	RowConflicts uint64 // bank had a different row open
	QueueCycles  uint64 // total cycles requests waited on busy banks/buses
	// OutOfOrder counts bank and bus bookings that started before the
	// latest booking already on their bank or bus
	// (timeline.Set.OutOfOrder).
	OutOfOrder uint64
}

// Memory is the DDR3 model. Not safe for concurrent use.
//
// Bank state is laid out struct-of-arrays over one flat uint64 word array:
// the scheduler's open-row windows, then per-bank window depths.
type Memory struct {
	cfg       Config
	rows      []uint64 // open-row windows, bank-major: [bank*SchedulerRows+slot]
	rowLen    []uint64 // per-bank count of valid slots in rows
	banks     timeline.Set
	buses     timeline.Set // per channel
	numBanks  int
	stats     Stats
	chanBits  uint
	bankBits  uint
	rowShift  uint
	lineShift uint   // log2(LineBytes), hoisted off the decode path
	chanMask  uint64 // Channels-1, hoisted off the decode path
	bankMask  uint64 // RanksPerChan*BanksPerRank-1, hoisted off the decode path
}

// New validates cfg and builds the memory model. Channel, rank and bank
// counts must be powers of two so address decoding is bit slicing.
func New(cfg Config) (*Memory, error) {
	if !pow2(cfg.Channels) || !pow2(cfg.RanksPerChan) || !pow2(cfg.BanksPerRank) {
		return nil, fmt.Errorf("dram: channels/ranks/banks must be powers of two, got %d/%d/%d",
			cfg.Channels, cfg.RanksPerChan, cfg.BanksPerRank)
	}
	if cfg.LineBytes == 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("dram: line size %d must be a power of two", cfg.LineBytes)
	}
	if cfg.RowBytes == 0 || cfg.RowBytes%cfg.LineBytes != 0 {
		return nil, fmt.Errorf("dram: row size %d must be a positive multiple of line size %d",
			cfg.RowBytes, cfg.LineBytes)
	}
	if cfg.TCAS == 0 || cfg.TBurst == 0 {
		return nil, fmt.Errorf("dram: zero core timing parameter")
	}
	if cfg.SchedulerRows <= 0 {
		return nil, fmt.Errorf("dram: scheduler row window %d must be positive", cfg.SchedulerRows)
	}
	nb := cfg.Channels * cfg.RanksPerChan * cfg.BanksPerRank
	rowWords := nb * cfg.SchedulerRows
	words := rowWords + nb
	state := make([]uint64, words)
	m := &Memory{
		cfg:      cfg,
		rows:     state[:rowWords:rowWords],
		rowLen:   state[rowWords:words:words],
		banks:    timeline.NewSet(nb),
		buses:    timeline.NewSet(cfg.Channels),
		numBanks: nb,
	}
	m.chanBits = log2u(uint64(cfg.Channels))
	m.bankBits = log2u(uint64(cfg.RanksPerChan * cfg.BanksPerRank))
	m.rowShift = log2u(cfg.RowBytes / cfg.LineBytes)
	m.lineShift = log2u(cfg.LineBytes)
	m.chanMask = uint64(cfg.Channels - 1)
	m.bankMask = uint64(cfg.RanksPerChan*cfg.BanksPerRank - 1)
	return m, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Memory {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func log2u(n uint64) uint {
	var b uint
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// Config returns the construction parameters.
func (m *Memory) Config() Config { return m.cfg }

// Stats returns a copy of the counters.
func (m *Memory) Stats() Stats {
	return m.stats.withOutOfOrder(m.banks.OutOfOrder() + m.buses.OutOfOrder())
}

func (s Stats) withOutOfOrder(n uint64) Stats {
	s.OutOfOrder = n
	return s
}

// ResetStats zeroes the counters; bank and bus bookings survive.
func (m *Memory) ResetStats() {
	m.stats = Stats{}
	m.banks.ResetCounts()
	m.buses.ResetCounts()
}

// Advance declares that no request will be issued before cycle now, so the
// bank and bus calendars may drop bookings that have ended (timeline.Set).
func (m *Memory) Advance(now uint64) {
	m.banks.Advance(now)
	m.buses.Advance(now)
}

// decode splits a byte address into (channel, global bank index, row).
// Lines interleave across channels first (maximising channel parallelism
// for streams), then across banks, then rows.
//
//lint:hotpath
func (m *Memory) decode(addr uint64) (ch int, bk int, row uint64) {
	la := addr >> m.lineShift
	ch = int(la & m.chanMask)
	la >>= m.chanBits
	bankInChan := la & m.bankMask
	la >>= m.bankBits
	row = la >> m.rowShift
	bk = ch*m.cfg.RanksPerChan*m.cfg.BanksPerRank + int(bankInChan)
	return ch, bk, row
}

// Access issues one line-sized request at cycle now and returns the cycle
// the data transfer completes.
//
// Writes (LLC dirty evictions) are posted: an FR-FCFS controller buffers
// them and drains them into idle bank cycles, so they update row state and
// statistics but do not reserve the bank or bus against reads. A read books
// its bank for the row access plus the burst in the earliest free gap at
// or after now + TCtrl, then its channel's data bus for the burst in the
// earliest free gap at or after the data is ready.
//
//lint:hotpath
func (m *Memory) Access(addr uint64, now uint64, write bool) uint64 {
	ch, bk, row := m.decode(addr)
	sr := m.cfg.SchedulerRows
	win := m.rows[bk*sr : (bk+1)*sr]
	n := int(m.rowLen[bk])

	var coreLat uint64
	switch hitIdx := rowIndex(win[:n], row); {
	case hitIdx >= 0:
		m.stats.RowHits++
		coreLat = m.cfg.TCAS
		// Refresh recency.
		copy(win[1:hitIdx+1], win[:hitIdx])
		win[0] = row
	case n < sr:
		m.stats.RowMisses++
		coreLat = m.cfg.TRCD + m.cfg.TCAS
		copy(win[1:n+1], win[:n])
		win[0] = row
		m.rowLen[bk] = uint64(n + 1)
	default:
		m.stats.RowConflicts++
		coreLat = m.cfg.TRP + m.cfg.TRCD + m.cfg.TCAS
		copy(win[1:], win[:n-1])
		win[0] = row
	}

	start := now + m.cfg.TCtrl
	if write {
		// Posted write: no resource claims; the write lands in idle slots.
		m.stats.Writes++
		done := start + coreLat + m.cfg.TBurst
		m.sanCheckBank(bk, now, done)
		return done
	}
	bankStart := m.banks.Reserve(bk, start, coreLat+m.cfg.TBurst)
	dataReady := bankStart + coreLat
	busStart := m.buses.Reserve(ch, dataReady, m.cfg.TBurst)
	m.stats.QueueCycles += (bankStart - start) + (busStart - dataReady)
	done := busStart + m.cfg.TBurst
	m.stats.Reads++
	m.sanCheckBank(bk, now, done)
	return done
}

// rowIndex finds row in the open window, or -1.
func rowIndex(rows []uint64, row uint64) int {
	for i, r := range rows {
		if r == row {
			return i
		}
	}
	return -1
}

// Banks returns the total number of DRAM banks (diagnostic).
func (m *Memory) Banks() int { return m.numBanks }
