// Package tlb implements the paper's enhanced TLB (Section IV-C): a
// conventional set-associative TLB whose entries are augmented with a
// Mapping Bit Vector (MBV) — one bit per cache line of the page (64 bits
// for a 4KB page of 64B lines). The bit records which NUCA mapping function
// allocated the line in the LLC: 0 = S-NUCA (non-critical), 1 = R-NUCA
// (critical). Because every load/store consults the TLB early in the memory
// pipeline, the mapping choice is known before the LLC is accessed and no
// extra lookup structure sits on the critical path.
//
// The paper leaves one corner unstated: when a TLB entry is evicted, its
// MBV is lost even though lines of that page may still live in the LLC at
// R-NUCA positions. A reloaded entry starts with an all-zero MBV, so the
// first access to such a line probes the S-NUCA bank, misses, and must fall
// back to the R-NUCA probe. This package counts the lost bits
// (Stats.LostMappingBits); the simulator implements and charges the
// two-probe fallback.
package tlb

import (
	"fmt"
	"math/bits"
)

// Config parameterises the TLB.
type Config struct {
	Entries     int
	Ways        int
	PageBytes   uint64
	LineBytes   uint64
	MissLatency uint32 // page-walk latency charged by the simulator
}

// DefaultConfig matches the paper: 64 entries, 8-way set-associative, 4KB
// pages, 64B lines (so a 64-bit MBV), and a 30-cycle walk.
func DefaultConfig() Config {
	return Config{Entries: 64, Ways: 8, PageBytes: 4096, LineBytes: 64, MissLatency: 30}
}

// Stats accumulates TLB behaviour counters.
type Stats struct {
	Hits            uint64
	Misses          uint64
	Evictions       uint64
	LostMappingBits uint64 // set MBV bits discarded by entry eviction
	BitSets         uint64 // MBV bits set to R-NUCA
	BitClears       uint64 // MBV bits reset on LLC eviction
	DroppedUpdates  uint64 // MBV updates for pages no longer resident
}

// HitRate returns hits/(hits+misses), or 0 with no accesses.
func (s Stats) HitRate() float64 {
	n := s.Hits + s.Misses
	if n == 0 {
		return 0
	}
	return float64(s.Hits) / float64(n)
}

// entry is one TLB slot, packed to 24 bytes: the LRU stamp and the valid
// flag share a meta word so an 8-way set stays within three CPU cache
// lines. LRU stamps are unique (tick increments per touch), so 63 bits
// never wrap.
type entry struct {
	vpn  uint64
	mbv  uint64
	meta uint64 // lru<<1 | valid
}

const (
	entryValid = 1

	// invalidVPN marks empty slots so find needs a single compare per way:
	// virtual page numbers are addresses shifted right by pageShift, so no
	// reachable VPN equals ^0.
	invalidVPN = ^uint64(0)
)

func (e entry) valid() bool { return e.meta&entryValid != 0 }
func (e entry) lru() uint64 { return e.meta >> 1 }

// TLB is one core's enhanced TLB (the simulator instantiates one per core,
// standing in for the paper's L1D TLB; instruction fetch is not modelled).
// Not safe for concurrent use.
type TLB struct {
	cfg       Config
	sets      []entry // flattened [numSets][ways]
	numSets   uint64
	setMask   uint64 // numSets-1, hoisted off the probe path
	ways      uint64 // uint64(cfg.Ways), hoisted off the probe path
	lineMask  uint64 // lines per page - 1, hoisted off the MBV path
	pageShift uint
	lineShift uint
	tick      uint64
	stats     Stats
}

// New validates cfg and builds the TLB.
func New(cfg Config) (*TLB, error) {
	if cfg.Ways <= 0 || cfg.Entries <= 0 || cfg.Entries%cfg.Ways != 0 {
		return nil, fmt.Errorf("tlb: %d entries not divisible into %d ways", cfg.Entries, cfg.Ways)
	}
	numSets := uint64(cfg.Entries / cfg.Ways)
	if numSets&(numSets-1) != 0 {
		return nil, fmt.Errorf("tlb: %d sets not a power of two", numSets)
	}
	if cfg.PageBytes == 0 || cfg.PageBytes&(cfg.PageBytes-1) != 0 {
		return nil, fmt.Errorf("tlb: page size %d not a power of two", cfg.PageBytes)
	}
	if cfg.LineBytes == 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("tlb: line size %d not a power of two", cfg.LineBytes)
	}
	if lines := cfg.PageBytes / cfg.LineBytes; lines > 64 {
		return nil, fmt.Errorf("tlb: %d lines per page exceed the 64-bit MBV", lines)
	}
	sets := make([]entry, cfg.Entries)
	for i := range sets {
		sets[i].vpn = invalidVPN
	}
	return &TLB{
		cfg:       cfg,
		sets:      sets,
		numSets:   numSets,
		setMask:   numSets - 1,
		ways:      uint64(cfg.Ways),
		lineMask:  cfg.PageBytes/cfg.LineBytes - 1,
		pageShift: uint(bits.TrailingZeros64(cfg.PageBytes)),
		lineShift: uint(bits.TrailingZeros64(cfg.LineBytes)),
	}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *TLB {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the construction parameters.
func (t *TLB) Config() Config { return t.cfg }

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// ResetStats zeroes the counters.
func (t *TLB) ResetStats() { t.stats = Stats{} }

func (t *TLB) vpn(vaddr uint64) uint64 { return vaddr >> t.pageShift }

// lineBit returns the MBV bit mask for vaddr's line within its page.
func (t *TLB) lineBit(vaddr uint64) uint64 {
	idx := (vaddr >> t.lineShift) & t.lineMask
	return 1 << idx
}

func (t *TLB) find(vpn uint64) *entry {
	setBase := (vpn & t.setMask) * t.ways
	ways := t.sets[setBase : setBase+t.ways]
	for i := range ways {
		if ways[i].vpn == vpn {
			return &ways[i]
		}
	}
	return nil
}

// Access translates vaddr. On a hit it refreshes recency and returns true.
// On a miss it installs a fresh entry (all-zero MBV), evicting the set's
// LRU entry and accounting any mapping bits that eviction discards, and
// returns false so the simulator can charge the walk latency.
func (t *TLB) Access(vaddr uint64) bool {
	vpn := t.vpn(vaddr)
	if e := t.find(vpn); e != nil {
		t.tick++
		e.meta = t.tick<<1 | entryValid
		t.stats.Hits++
		return true
	}
	t.stats.Misses++
	setBase := (vpn & t.setMask) * t.ways
	ways := t.sets[setBase : setBase+t.ways]
	victim := 0
	for i := range ways {
		if !ways[i].valid() {
			victim = i
			goto install
		}
		if ways[i].lru() < ways[victim].lru() {
			victim = i
		}
	}
	t.stats.Evictions++
	t.stats.LostMappingBits += uint64(bits.OnesCount64(ways[victim].mbv))
install:
	t.tick++
	ways[victim] = entry{vpn: vpn, meta: t.tick<<1 | entryValid}
	return false
}

// MappingBit reads the MBV bit for vaddr's line: true means the line was
// allocated with R-NUCA (critical), false means S-NUCA. Pages not resident
// in the TLB report false — exactly the hardware behaviour after an entry
// reload, which is what forces the two-probe fallback.
func (t *TLB) MappingBit(vaddr uint64) bool {
	e := t.find(t.vpn(vaddr))
	return e != nil && e.mbv&t.lineBit(vaddr) != 0
}

// SetMappingBit records the mapping used for vaddr's line after an LLC
// fill: critical=true sets the bit (R-NUCA), false clears it (S-NUCA). An
// update for a page that has since left the TLB is dropped and counted.
func (t *TLB) SetMappingBit(vaddr uint64, critical bool) {
	e := t.find(t.vpn(vaddr))
	if e == nil {
		t.stats.DroppedUpdates++
		return
	}
	bit := t.lineBit(vaddr)
	if critical {
		if e.mbv&bit == 0 {
			t.stats.BitSets++
		}
		e.mbv |= bit
	} else {
		e.mbv &^= bit
	}
}

// ClearMappingBit resets the MBV bit when the line is evicted from the LLC
// (Section IV-C: "when a cache line is being evicted, the corresponding
// MBV bit needs to be reset back to 0").
func (t *TLB) ClearMappingBit(vaddr uint64) {
	e := t.find(t.vpn(vaddr))
	if e == nil {
		t.stats.DroppedUpdates++
		return
	}
	bit := t.lineBit(vaddr)
	if e.mbv&bit != 0 {
		t.stats.BitClears++
	}
	e.mbv &^= bit
}

// Resident reports whether vaddr's page is in the TLB (diagnostics).
func (t *TLB) Resident(vaddr uint64) bool { return t.find(t.vpn(vaddr)) != nil }

// OverheadBits returns the extra storage the MBV adds to this TLB in bits
// (the paper quotes 512 bytes per 64-entry TLB: 64 entries x 64 bits).
func (t *TLB) OverheadBits() uint64 {
	return uint64(t.cfg.Entries) * (t.cfg.PageBytes / t.cfg.LineBytes)
}
