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

// way is one line frame, packed to 16 bytes so an 8-way set spans two CPU
// cache lines instead of three: the tag plus a meta word holding the LRU
// stamp in the upper bits and the dirty/valid flags in the low two. LRU
// stamps are unique per cache (the tick counter increments on every touch),
// so 62 bits never wrap in practice.
type way struct {
	tag  uint64
	meta uint64 // lru<<2 | dirty<<1 | valid
}

const (
	wayValid = 1 << 0
	wayDirty = 1 << 1
	lruShift = 2

	// invalidTag marks empty/invalidated frames so probe loops need a
	// single tag compare per way: simulated physical addresses stay below
	// 2^41 (16 cores above bit 36), so no reachable tag equals ^0.
	invalidTag = ^uint64(0)
)

func (w way) valid() bool { return w.meta&wayValid != 0 }
func (w way) dirty() bool { return w.meta&wayDirty != 0 }
func (w way) lru() uint64 { return w.meta >> lruShift }

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
	sets     []way // flattened [numSets][ways]
	numSets  uint64
	setMask  uint64
	setBits  uint   // log2(numSets), precomputed off the probe path
	ways     uint64 // uint64(cfg.Ways), hoisted off the probe path
	lineBits uint
	tick     uint64
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
	sets := make([]way, lines)
	for i := range sets {
		sets[i].tag = invalidTag
	}
	return &Cache{
		cfg:      cfg,
		sets:     sets,
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
func (c *Cache) Lines() uint64 { return uint64(len(c.sets)) }

// SetIndex returns the set index addr maps to (exported for the intra-bank
// wear-leveling extension, which remaps sets).
func (c *Cache) SetIndex(addr uint64) uint64 {
	return (addr >> c.lineBits) & c.setMask
}

func (c *Cache) locate(addr uint64) (setBase uint64, tag uint64) {
	lineAddr := addr >> c.lineBits
	return (lineAddr & c.setMask) * c.ways, lineAddr >> c.setBits
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
	setBase, tag := c.locate(addr)
	c.sanCheckTouch(setBase)
	ways := c.sets[setBase : setBase+c.ways]
	for i := range ways {
		if ways[i].tag == tag {
			c.tick++
			meta := c.tick<<lruShift | ways[i].meta&(wayValid|wayDirty)
			if write {
				meta |= wayDirty
				c.stats.WriteHits++
			} else {
				c.stats.ReadHits++
			}
			ways[i].meta = meta
			return true, setBase + uint64(i)
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
	setBase, tag := c.locate(addr)
	ways := c.sets[setBase : setBase+c.ways]
	for i := range ways {
		if ways[i].tag == tag {
			return true
		}
	}
	return false
}

// PeekDirty reports (present, dirty) without touching recency or stats.
func (c *Cache) PeekDirty(addr uint64) (present, dirty bool) {
	setBase, tag := c.locate(addr)
	ways := c.sets[setBase : setBase+c.ways]
	for i := range ways {
		if ways[i].tag == tag {
			return true, ways[i].dirty()
		}
	}
	return false, false
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
	setBase, tag := c.locate(addr)
	ways := c.sets[setBase : setBase+c.ways]
	victimIdx := 0
	for i := range ways {
		if !ways[i].valid() {
			victimIdx = i
			goto install
		}
		if ways[i].lru() < ways[victimIdx].lru() {
			victimIdx = i
		}
	}
install:
	v := Victim{}
	if ways[victimIdx].valid() {
		v.Valid = true
		v.Dirty = ways[victimIdx].dirty()
		// The victim shares the incoming line's set, so its set index is the
		// shift/mask form rather than setBase/ways (ways need not be pow2).
		v.Addr = c.reconstruct(c.SetIndex(addr), ways[victimIdx].tag)
		c.stats.Evictions++
		if v.Dirty {
			c.stats.DirtyEvicts++
		}
	}
	c.tick++
	meta := c.tick<<lruShift | wayValid
	if dirty {
		meta |= wayDirty
	}
	ways[victimIdx] = way{tag: tag, meta: meta}
	c.stats.Fills++
	c.sanCheckFill(setBase, v.Valid)
	return v, setBase + uint64(victimIdx)
}

// Invalidate removes addr if present and reports (present, wasDirty). Used
// for coherence back-invalidations and inclusive-eviction shootdowns.
//
//lint:hotpath
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	setBase, tag := c.locate(addr)
	ways := c.sets[setBase : setBase+c.ways]
	for i := range ways {
		if ways[i].tag == tag {
			d := ways[i].dirty()
			ways[i] = way{tag: invalidTag}
			c.stats.Invalidates++
			c.sanCheckInvalidate(setBase, true)
			return true, d
		}
	}
	c.sanCheckInvalidate(setBase, false)
	return false, false
}

// CleanLine clears the dirty bit of addr if present (after a write-back has
// been propagated downstream).
//
//lint:hotpath
func (c *Cache) CleanLine(addr uint64) {
	setBase, tag := c.locate(addr)
	c.sanCheckTouch(setBase)
	ways := c.sets[setBase : setBase+c.ways]
	for i := range ways {
		if ways[i].tag == tag {
			ways[i].meta &^= wayDirty
			return
		}
	}
}

// reconstruct rebuilds a line's byte address from its set and tag.
func (c *Cache) reconstruct(set, tag uint64) uint64 {
	return (tag<<c.setBits | set) << c.lineBits
}

// Occupancy returns the number of valid lines (test/diagnostic helper).
func (c *Cache) Occupancy() uint64 {
	var n uint64
	for i := range c.sets {
		if c.sets[i].valid() {
			n++
		}
	}
	return n
}
