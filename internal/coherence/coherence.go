// Package coherence implements the MESI directory protocol Table I lists
// for the shared LLC. The directory sits logically alongside the LLC and
// tracks, for every line some private L2 holds, which L2s hold copies and
// in which state. It keeps them in an open-addressed table sized once from
// the total L2 capacity, so the hot path never hashes through a Go map,
// grows or allocates. The evaluated workloads are multi-programmed (no data
// sharing between cores — each core's address space is disjoint), so the
// protocol's sharing transitions are exercised by unit tests and by the
// inclusive-eviction shootdown path: when the LLC evicts a line, the
// directory back-invalidates the upper-level copies, and a dirty private
// copy must be written back.
//
// The acquire/shootdown results report affected cores as bitmasks rather
// than slices: the directory sits on the simulator's per-operation hot
// path, and returning a mask keeps it allocation-free. Iterate with
// bits.TrailingZeros64 (ascending core order).
package coherence

import (
	"fmt"
	"math/bits"
)

// State is a MESI line state as seen by the directory for one line.
type State uint8

const (
	// Invalid: no private cache holds the line.
	Invalid State = iota
	// Shared: one or more private caches hold read-only copies.
	Shared
	// Exclusive: exactly one private cache holds a clean exclusive copy.
	Exclusive
	// Modified: exactly one private cache holds a dirty copy.
	Modified
)

// String returns the MESI letter.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return "?"
	}
}

// Stats counts protocol events.
type Stats struct {
	ReadMisses      uint64 // GetS requests reaching the directory
	WriteMisses     uint64 // GetM requests reaching the directory
	Invalidations   uint64 // copies invalidated by upgrades or shootdowns
	Downgrades      uint64 // M/E copies downgraded to S by remote reads
	DirtyWritebacks uint64 // dirty data pushed down by invalidation/downgrade
	Shootdowns      uint64 // inclusive back-invalidations from LLC evictions
}

// The directory's line table is open-addressed with linear probing. Each
// slot is 16 bytes: key holds the line address with the MESI state in its
// top two bits, and sharers is the bitmask of cores holding a copy. A slot
// is empty when its mask is zero, and in E/M the owner is the mask's only
// bit, so no separate owner field is stored. Line addresses stay below
// 2^42 in the simulated physical space, far under the state bits.
//
// The table is allocated once at construction. A line is tracked only
// while some private L2 holds it, plus the one line a walk acquires before
// its L2 fill evicts a victim, so the population never exceeds total L2
// lines + 1. Sizing the table at twice the next power of two of the total
// L2 lines keeps the load factor at about one half or below without ever
// growing or allocating on the hot path; an insert past the bound can only
// come from a lost release, so it panics. Deletion shifts the following
// run back (no tombstones), so probe chains never lengthen with churn.
type slot struct {
	key     uint64 // line address | state<<stateShift
	sharers uint64 // bitmask of cores with a copy; 0 = empty slot
}

const (
	stateShift = 62
	addrMask   = uint64(1)<<stateShift - 1
)

func (s slot) state() State             { return State(s.key >> stateShift) }
func (s slot) addr() uint64             { return s.key & addrMask }
func pack(addr uint64, st State) uint64 { return addr | uint64(st)<<stateShift }

// Directory is the MESI directory. It supports up to 64 cores (bitmask
// sharers). Not safe for concurrent use.
type Directory struct {
	numCores int
	slots    []slot // open-addressed line table, len a power of two
	mask     uint64 // len(slots)-1
	shift    uint   // 64 - log2(len(slots)), for the multiplicative hash
	count    int    // tracked lines
	limit    int    // most lines the hierarchy can have tracked at once
	stats    Stats
	san      sanState // sweep pacing; zero-size without the simcheck tag
}

// NewDirectory builds a directory for numCores private caches that
// together hold at most maxLines lines (the sum of the private L2
// capacities); the line table is sized from that bound once, here.
func NewDirectory(numCores, maxLines int) (*Directory, error) {
	if numCores <= 0 || numCores > 64 {
		return nil, fmt.Errorf("coherence: core count %d out of [1,64]", numCores)
	}
	if maxLines <= 0 {
		return nil, fmt.Errorf("coherence: line bound %d must be positive", maxLines)
	}
	// 2 x nextPow2(maxLines) slots, at least 4 so the transient line still
	// leaves an empty slot to end every probe run.
	size := max(4, 2<<bits.Len64(uint64(maxLines-1)))
	return &Directory{
		numCores: numCores,
		slots:    make([]slot, size),
		mask:     uint64(size - 1),
		shift:    uint(64 - bits.TrailingZeros64(uint64(size))),
		limit:    maxLines + 1, // one transient line between acquire and the L2 victim's release
	}, nil
}

// MustNewDirectory is NewDirectory that panics on error.
func MustNewDirectory(numCores, maxLines int) *Directory {
	d, err := NewDirectory(numCores, maxLines)
	if err != nil {
		panic(err)
	}
	return d
}

// Stats returns a copy of the counters.
func (d *Directory) Stats() Stats { return d.stats }

// ResetStats zeroes the counters.
func (d *Directory) ResetStats() { d.stats = Stats{} }

// home is addr's preferred slot (Fibonacci hashing: the multiply folds
// every address bit into the top bits the shift keeps).
func (d *Directory) home(addr uint64) uint64 {
	return addr * 0x9E3779B97F4A7C15 >> d.shift
}

// find returns the slot index holding addr, or the empty slot that ends
// its probe run and found=false.
func (d *Directory) find(addr uint64) (i uint64, found bool) {
	for i = d.home(addr); d.slots[i].sharers != 0; i = (i + 1) & d.mask {
		if d.slots[i].addr() == addr {
			return i, true
		}
	}
	return i, false
}

// insert claims the empty slot i (from find) for addr.
func (d *Directory) insert(i, addr uint64, st State, sharers uint64) {
	if d.count == d.limit {
		panic(fmt.Sprintf("coherence: tracking more than %d lines; the private caches hold fewer, so a release was lost", d.limit))
	}
	d.slots[i] = slot{key: pack(addr, st), sharers: sharers}
	d.count++
}

// remove empties slot i and shifts later members of its probe run back
// into the gap, so every remaining line stays reachable from its home.
func (d *Directory) remove(i uint64) {
	for j := (i + 1) & d.mask; d.slots[j].sharers != 0; j = (j + 1) & d.mask {
		// Slot j may move back to i only if its home does not lie
		// cyclically in (i, j]; otherwise the gap would cut it off.
		h := d.home(d.slots[j].addr())
		if (j-h)&d.mask >= (j-i)&d.mask {
			d.slots[i] = d.slots[j]
			i = j
		}
	}
	d.slots[i] = slot{}
	d.count--
}

// StateOf returns the directory state for a line (Invalid when untracked).
func (d *Directory) StateOf(addr uint64) State {
	if i, ok := d.find(addr); ok {
		return d.slots[i].state()
	}
	return Invalid
}

// Sharers returns the cores holding a copy of addr.
func (d *Directory) Sharers(addr uint64) []int {
	i, ok := d.find(addr)
	if !ok {
		return nil
	}
	sharers := d.slots[i].sharers
	var out []int
	for c := 0; c < d.numCores; c++ {
		if sharers&(1<<uint(c)) != 0 {
			out = append(out, c)
		}
	}
	return out
}

// ReadAcquire handles core's read (GetS) for addr after it missed the
// private caches. It returns the bitmask of cores whose copies were
// downgraded (the simulator charges their snoop latency) and whether a
// dirty copy had to be written back to the LLC first.
//
//lint:hotpath
func (d *Directory) ReadAcquire(addr uint64, core int) (downgraded uint64, dirtyWB bool) {
	d.checkCore(core)
	d.sanCheckLine(addr)
	d.stats.ReadMisses++
	bit := uint64(1) << uint(core)
	i, ok := d.find(addr)
	if !ok {
		// First reader gets Exclusive (the E optimisation of MESI).
		d.insert(i, addr, Exclusive, bit)
		d.sanCheckTransition(addr, Invalid)
		return 0, false
	}
	s := &d.slots[i]
	prev := s.state()
	if prev == Modified {
		dirtyWB = true
		d.stats.DirtyWritebacks++
	}
	if prev != Shared {
		// E/M: the single owner, if it is not the reader, keeps a
		// downgraded read-only copy.
		if downgraded = s.sharers &^ bit; downgraded != 0 {
			d.stats.Downgrades++
		}
	}
	s.key = pack(addr, Shared)
	s.sharers |= bit
	d.sanCheckTransition(addr, prev)
	return downgraded, dirtyWB
}

// WriteAcquire handles core's write (GetM) for addr. It returns the bitmask
// of cores whose copies were invalidated and whether a remote dirty copy
// was written back.
//
//lint:hotpath
func (d *Directory) WriteAcquire(addr uint64, core int) (invalidated uint64, dirtyWB bool) {
	d.checkCore(core)
	d.sanCheckLine(addr)
	d.stats.WriteMisses++
	bit := uint64(1) << uint(core)
	i, ok := d.find(addr)
	if !ok {
		d.insert(i, addr, Modified, bit)
		d.sanCheckTransition(addr, Invalid)
		return 0, false
	}
	s := &d.slots[i]
	prev := s.state()
	invalidated = s.sharers &^ bit
	if prev == Modified && invalidated != 0 {
		dirtyWB = true
		d.stats.DirtyWritebacks++
	}
	d.stats.Invalidations += uint64(popcount(invalidated))
	*s = slot{key: pack(addr, Modified), sharers: bit}
	d.sanCheckTransition(addr, prev)
	return invalidated, dirtyWB
}

// Release removes core's copy of addr (its private cache evicted the line).
// dirty reports whether the private copy was dirty; the directory then
// transitions M->I (data written back to LLC by the caller).
//
//lint:hotpath
func (d *Directory) Release(addr uint64, core int, dirty bool) {
	d.checkCore(core)
	d.sanCheckLine(addr)
	i, ok := d.find(addr)
	if !ok {
		return
	}
	prev := d.slots[i].state()
	// In E/M the only sharer is the owner, so a release either drops the
	// last copy or leaves the line (and its state) untouched; in S the
	// remaining copies stay read-only.
	if d.slots[i].sharers &^= 1 << uint(core); d.slots[i].sharers == 0 {
		d.remove(i)
	}
	d.sanCheckTransition(addr, prev)
	_ = dirty // dirtiness is the caller's write-back concern; tracked in stats by Shootdown/Acquire paths
}

// Shootdown back-invalidates every private copy of addr because the LLC is
// evicting the line (inclusive hierarchy). It returns the bitmask of cores
// that held copies and whether any copy was dirty (needing a write-back
// ahead of the eviction).
//
//lint:hotpath
func (d *Directory) Shootdown(addr uint64) (holders uint64, dirty bool) {
	d.sanCheckLine(addr)
	i, ok := d.find(addr)
	if !ok {
		return 0, false
	}
	prev := d.slots[i].state()
	holders = d.slots[i].sharers
	d.stats.Invalidations += uint64(popcount(holders))
	d.stats.Shootdowns++
	dirty = prev == Modified
	if dirty {
		d.stats.DirtyWritebacks++
	}
	d.remove(i)
	d.sanCheckTransition(addr, prev)
	return holders, dirty
}

// TrackedLines returns how many lines the directory currently tracks.
func (d *Directory) TrackedLines() int { return d.count }

func popcount(m uint64) int { return bits.OnesCount64(m) }

func (d *Directory) checkCore(core int) {
	if core < 0 || core >= d.numCores {
		panic(fmt.Sprintf("coherence: core %d out of range [0,%d)", core, d.numCores))
	}
}
