// Package cache implements the set-associative, write-back, write-allocate
// cache used for every level of the simulated hierarchy (L1I, L1D, private
// L2, and each LLC bank). It is a functional model with LRU replacement and
// hit/miss/eviction accounting; timing is composed by the simulator on top.
package cache

import "fmt"

// Config sizes a cache. Sets must come out a power of two.
type Config struct {
	Name      string
	SizeBytes uint64
	Ways      int
	LineBytes uint64
	Latency   uint32 // access latency in cycles, carried for the simulator
}

// Stats accumulates access-level counters.
type Stats struct {
	ReadHits    uint64
	ReadMisses  uint64
	WriteHits   uint64
	WriteMisses uint64
	Fills       uint64
	Evictions   uint64
	DirtyEvicts uint64
	Invalidates uint64
}

// Hits returns total hits.
func (s Stats) Hits() uint64 { return s.ReadHits + s.WriteHits }

// Misses returns total misses.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// Accesses returns total lookups.
func (s Stats) Accesses() uint64 { return s.Hits() + s.Misses() }

// HitRate returns hits/accesses, or 0 when the cache was never accessed.
func (s Stats) HitRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(a)
}

// Frames are split into two parallel arrays indexed by frame number
// (set*ways+way), so a probe reads tags only: a 16-way LLC set's tags span
// two host cache lines and an 8-way L2 set's span one.
//
//   - tags[f] holds the line tag plus one, with the dirty flag in bit 63.
//     Zero is an empty way, so a fresh array needs no sentinel fill and a
//     probe needs one masked compare per way. Simulated physical addresses
//     stay below 2^42 (the core ID sits at bits 36 and up), so tag+1 never
//     reaches the dirty bit; the armed sanitizer checks every fill.
//   - stamps[f] holds the 32-bit LRU stamp of the frame's last hit or fill.
//     Stamps are unique within a cache between renormalisations; the
//     victim is the first empty way, else the valid way with the oldest
//     stamp.
const (
	dirtyBit = uint64(1) << 63
	tagMask  = dirtyBit - 1

	// maxStamp is the last LRU tick before the 32-bit clock would wrap;
	// reaching it renormalises every set's stamps (see renormalise).
	maxStamp = ^uint32(0)
)

// Victim describes a line displaced by Fill or removed by Invalidate.
type Victim struct {
	Addr  uint64 // byte address of the first byte of the line
	Valid bool   // false when the fill used an empty way
	Dirty bool
}

// Cache is a single set-associative cache. It is not safe for concurrent
// use: every Cache belongs to exactly one sim.System, and the parallel
// experiment harness confines each System — caches included — to a single
// worker goroutine (concurrent sweeps run disjoint Systems).
type Cache struct {
	cfg      Config
	tags     []uint64 // per frame: tag+1 | dirty<<63; 0 = empty
	stamps   []uint32 // per frame: LRU stamp of the last hit or fill
	numSets  uint64
	setMask  uint64
	setBits  uint   // log2(numSets), precomputed off the probe path
	ways     uint64 // uint64(cfg.Ways), hoisted off the probe path
	lineBits uint
	tick     uint32 // last LRU stamp handed out
	stats    Stats
	san      sanState // occupancy-conservation counters; zero-size without the simcheck tag
}

// New builds a cache from cfg. It returns an error when the geometry does
// not divide evenly or set/line counts are not powers of two.
func New(cfg Config) (*Cache, error) {
	if cfg.LineBytes == 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineBytes)
	}
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache %s: ways %d must be positive", cfg.Name, cfg.Ways)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines == 0 || cfg.SizeBytes%cfg.LineBytes != 0 {
		return nil, fmt.Errorf("cache %s: size %d not a multiple of line size %d", cfg.Name, cfg.SizeBytes, cfg.LineBytes)
	}
	if lines%uint64(cfg.Ways) != 0 {
		return nil, fmt.Errorf("cache %s: %d lines not divisible by %d ways", cfg.Name, lines, cfg.Ways)
	}
	numSets := lines / uint64(cfg.Ways)
	if numSets&(numSets-1) != 0 {
		return nil, fmt.Errorf("cache %s: %d sets not a power of two", cfg.Name, numSets)
	}
	var lineBits uint
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		lineBits++
	}
	return &Cache{
		cfg:      cfg,
		tags:     make([]uint64, lines),
		stamps:   make([]uint32, lines),
		numSets:  numSets,
		setMask:  numSets - 1,
		setBits:  uint(bitsFor(numSets)),
		ways:     uint64(cfg.Ways),
		lineBits: lineBits,
	}, nil
}

// MustNew is New that panics on error, for fixed known-good geometries.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the construction parameters.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters (used at the warmup/measure boundary).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// NumSets returns the number of sets.
func (c *Cache) NumSets() uint64 { return c.numSets }

// Lines returns the total line capacity.
func (c *Cache) Lines() uint64 { return uint64(len(c.tags)) }

// SetIndex returns the set index addr maps to (exported for the intra-bank
// wear-leveling extension, which remaps sets).
func (c *Cache) SetIndex(addr uint64) uint64 {
	return (addr >> c.lineBits) & c.setMask
}

// locate returns the first frame of addr's set and the stored form of its
// tag (tag+1, dirty bit clear).
func (c *Cache) locate(addr uint64) (setBase uint64, want uint64) {
	lineAddr := addr >> c.lineBits
	return (lineAddr & c.setMask) * c.ways, lineAddr>>c.setBits + 1
}

// find returns the frame of the set at setBase whose tag is want, or
// ok=false. It reads tags only.
func (c *Cache) find(setBase, want uint64) (frame uint64, ok bool) {
	for i, t := range c.tags[setBase : setBase+c.ways] {
		if t&tagMask == want {
			return setBase + uint64(i), true
		}
	}
	return 0, false
}

// nextStamp advances the LRU clock and returns the new stamp.
func (c *Cache) nextStamp() uint32 {
	if c.tick == maxStamp {
		c.renormalise()
	}
	c.tick++
	return c.tick
}

// renormalise rewrites every set's valid stamps to their rank order
// (1..ways) and restarts the clock above them. Victim choice only ever
// compares stamps within one set, so this is exact; it runs once per 2^32
// hits and fills.
func (c *Cache) renormalise() {
	rank := make([]uint32, c.ways)
	for base := uint64(0); base < uint64(len(c.tags)); base += c.ways {
		tags := c.tags[base : base+c.ways]
		stamps := c.stamps[base : base+c.ways]
		for i := range stamps {
			rank[i] = 0
			if tags[i] == 0 {
				continue
			}
			rank[i] = 1
			for j := range stamps {
				if tags[j] != 0 && stamps[j] < stamps[i] {
					rank[i]++
				}
			}
		}
		copy(stamps, rank)
	}
	c.tick = uint32(c.ways)
}

func bitsFor(n uint64) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// Lookup probes for addr. On a hit it updates recency, marks the line dirty
// when write is true, and returns true. On a miss it records the miss and
// returns false without allocating; callers decide whether to Fill.
func (c *Cache) Lookup(addr uint64, write bool) bool {
	hit, _ := c.LookupFrame(addr, write)
	return hit
}

// LookupFrame is Lookup, additionally returning the physical frame index
// (set*ways+way) touched on a hit. The LLC banks use the frame index for
// per-frame ReRAM wear accounting; frame is 0 and meaningless on a miss.
//
//lint:hotpath
func (c *Cache) LookupFrame(addr uint64, write bool) (hit bool, frame uint64) {
	setBase, want := c.locate(addr)
	c.sanCheckTouch(setBase)
	tags := c.tags[setBase : setBase+c.ways]
	for i, t := range tags {
		if t&tagMask == want {
			if write {
				tags[i] = t | dirtyBit
				c.stats.WriteHits++
			} else {
				c.stats.ReadHits++
			}
			frame = setBase + uint64(i)
			c.stamps[frame] = c.nextStamp()
			return true, frame
		}
	}
	if write {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}
	return false, 0
}

// Peek reports whether addr is present without touching recency or stats.
func (c *Cache) Peek(addr uint64) bool {
	_, ok := c.find(c.locate(addr))
	return ok
}

// PeekDirty reports (present, dirty) without touching recency or stats.
func (c *Cache) PeekDirty(addr uint64) (present, dirty bool) {
	f, ok := c.find(c.locate(addr))
	return ok, ok && c.tags[f]&dirtyBit != 0
}

// Fill installs addr (which must not already be present — callers Lookup
// first) and returns the displaced victim, if any. The new line is dirty
// when the fill is caused by a write (write-allocate) or an incoming dirty
// write-back.
func (c *Cache) Fill(addr uint64, dirty bool) Victim {
	v, _ := c.FillFrame(addr, dirty)
	return v
}

// FillFrame is Fill, additionally returning the physical frame index the
// line was installed into, for per-frame ReRAM wear accounting.
//
//lint:hotpath
func (c *Cache) FillFrame(addr uint64, dirty bool) (Victim, uint64) {
	setBase, want := c.locate(addr)
	tags := c.tags[setBase : setBase+c.ways]
	stamps := c.stamps[setBase : setBase+c.ways][:len(tags)] // one length: no bounds checks in the loop
	// Victim: the first empty way, else the oldest stamp.
	victimIdx, oldest := 0, stamps[0]
	for i, t := range tags {
		if t == 0 {
			victimIdx = i
			break
		}
		if stamps[i] < oldest {
			victimIdx, oldest = i, stamps[i]
		}
	}
	v := Victim{}
	if t := tags[victimIdx]; t != 0 {
		v.Valid = true
		v.Dirty = t&dirtyBit != 0
		// The victim shares the incoming line's set, so its set index is the
		// shift/mask form rather than setBase/ways (ways need not be pow2).
		v.Addr = c.reconstruct(c.SetIndex(addr), t&tagMask-1)
		c.stats.Evictions++
		if v.Dirty {
			c.stats.DirtyEvicts++
		}
	}
	t := want
	if dirty {
		t |= dirtyBit
	}
	tags[victimIdx] = t
	stamps[victimIdx] = c.nextStamp()
	c.stats.Fills++
	c.sanCheckFill(setBase, want, v.Valid)
	return v, setBase + uint64(victimIdx)
}

// Invalidate removes addr if present and reports (present, wasDirty). Used
// for coherence back-invalidations and inclusive-eviction shootdowns.
//
//lint:hotpath
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	setBase, want := c.locate(addr)
	f, ok := c.find(setBase, want)
	if !ok {
		c.sanCheckInvalidate(setBase, false)
		return false, false
	}
	dirty = c.tags[f]&dirtyBit != 0
	c.tags[f] = 0
	c.stats.Invalidates++
	c.sanCheckInvalidate(setBase, true)
	return true, dirty
}

// CleanLine clears the dirty bit of addr if present (after a write-back has
// been propagated downstream).
//
//lint:hotpath
func (c *Cache) CleanLine(addr uint64) {
	setBase, want := c.locate(addr)
	c.sanCheckTouch(setBase)
	if f, ok := c.find(setBase, want); ok {
		c.tags[f] &^= dirtyBit
	}
}

// reconstruct rebuilds a line's byte address from its set and tag.
func (c *Cache) reconstruct(set, tag uint64) uint64 {
	return (tag<<c.setBits | set) << c.lineBits
}

// Occupancy returns the number of valid lines (test/diagnostic helper).
func (c *Cache) Occupancy() uint64 {
	var n uint64
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}
