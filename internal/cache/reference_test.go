package cache

import (
	"fmt"
	"testing"
)

// refCache is the previous frame layout kept as a test oracle: one 16-byte
// frame per way holding the tag and a meta word (64-bit LRU stamp, dirty,
// valid), with an all-ones sentinel tag for empty ways. The split tag/stamp
// arrays must reproduce its hits, frames, victims and stats exactly.
type refCache struct {
	sets     []refWay
	setMask  uint64
	setBits  uint
	ways     uint64
	lineBits uint
	tick     uint64
	stats    Stats
}

type refWay struct {
	tag  uint64
	meta uint64 // lru<<2 | dirty<<1 | valid
}

const (
	refValid    = 1 << 0
	refDirty    = 1 << 1
	refLRUShift = 2
	refInvalid  = ^uint64(0)
)

func newRef(c *Cache) *refCache {
	r := &refCache{
		sets:     make([]refWay, c.Lines()),
		setMask:  c.setMask,
		setBits:  c.setBits,
		ways:     c.ways,
		lineBits: c.lineBits,
	}
	for i := range r.sets {
		r.sets[i].tag = refInvalid
	}
	return r
}

func (r *refCache) locate(addr uint64) (uint64, uint64) {
	line := addr >> r.lineBits
	return (line & r.setMask) * r.ways, line >> r.setBits
}

func (r *refCache) lookup(addr uint64, write bool) (bool, uint64) {
	base, tag := r.locate(addr)
	ways := r.sets[base : base+r.ways]
	for i := range ways {
		if ways[i].tag == tag {
			r.tick++
			meta := r.tick<<refLRUShift | ways[i].meta&(refValid|refDirty)
			if write {
				meta |= refDirty
				r.stats.WriteHits++
			} else {
				r.stats.ReadHits++
			}
			ways[i].meta = meta
			return true, base + uint64(i)
		}
	}
	if write {
		r.stats.WriteMisses++
	} else {
		r.stats.ReadMisses++
	}
	return false, 0
}

func (r *refCache) peekDirty(addr uint64) (bool, bool) {
	base, tag := r.locate(addr)
	for _, w := range r.sets[base : base+r.ways] {
		if w.tag == tag {
			return true, w.meta&refDirty != 0
		}
	}
	return false, false
}

func (r *refCache) fill(addr uint64, dirty bool) (Victim, uint64) {
	base, tag := r.locate(addr)
	ways := r.sets[base : base+r.ways]
	victim := 0
	for i := range ways {
		if ways[i].meta&refValid == 0 {
			victim = i
			break
		}
		if ways[i].meta>>refLRUShift < ways[victim].meta>>refLRUShift {
			victim = i
		}
	}
	v := Victim{}
	if w := ways[victim]; w.meta&refValid != 0 {
		v = Victim{Valid: true, Dirty: w.meta&refDirty != 0,
			Addr: (w.tag<<r.setBits | (addr>>r.lineBits)&r.setMask) << r.lineBits}
		r.stats.Evictions++
		if v.Dirty {
			r.stats.DirtyEvicts++
		}
	}
	r.tick++
	meta := r.tick<<refLRUShift | refValid
	if dirty {
		meta |= refDirty
	}
	ways[victim] = refWay{tag: tag, meta: meta}
	r.stats.Fills++
	return v, base + uint64(victim)
}

func (r *refCache) invalidate(addr uint64) (bool, bool) {
	base, tag := r.locate(addr)
	ways := r.sets[base : base+r.ways]
	for i := range ways {
		if ways[i].tag == tag {
			d := ways[i].meta&refDirty != 0
			ways[i] = refWay{tag: refInvalid}
			r.stats.Invalidates++
			return true, d
		}
	}
	return false, false
}

func (r *refCache) clean(addr uint64) {
	base, tag := r.locate(addr)
	ways := r.sets[base : base+r.ways]
	for i := range ways {
		if ways[i].tag == tag {
			ways[i].meta &^= refDirty
			return
		}
	}
}

func (r *refCache) occupancy() uint64 {
	var n uint64
	for _, w := range r.sets {
		if w.meta&refValid != 0 {
			n++
		}
	}
	return n
}

// xorshift is a fixed-algorithm generator so failures replay exactly.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// TestCacheMatchesReference drives the cache and the reference through the
// same random Lookup/Fill/Invalidate/CleanLine/PeekDirty sequences and
// requires identical results at every step. Geometries cover a single set
// and 1 to 16 ways; addresses reach 2^41; the wrap variants push the 32-bit
// LRU clock to the edge again and again, so renormalisation runs many times
// mid-sequence while the reference's 64-bit clock never wraps.
func TestCacheMatchesReference(t *testing.T) {
	geoms := []Config{
		{Name: "one-set", SizeBytes: 4 * 64, Ways: 4, LineBytes: 64},
		{Name: "direct", SizeBytes: 8 * 64, Ways: 1, LineBytes: 64},
		{Name: "2way", SizeBytes: 16 * 64, Ways: 2, LineBytes: 64},
		{Name: "4way", SizeBytes: 32 * 64, Ways: 4, LineBytes: 64},
		{Name: "8way", SizeBytes: 64 * 64, Ways: 8, LineBytes: 64},
		{Name: "16way", SizeBytes: 64 * 64, Ways: 16, LineBytes: 64},
		{Name: "16way-32B", SizeBytes: 128 * 32, Ways: 16, LineBytes: 32},
		{Name: "3way-1set", SizeBytes: 3 * 64, Ways: 3, LineBytes: 64},
	}
	for _, cfg := range geoms {
		for _, wrap := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/wrap=%v", cfg.Name, wrap), func(t *testing.T) {
				for seed := uint64(1); seed <= 8; seed++ {
					checkAgainstReference(t, cfg, seed, wrap)
				}
			})
		}
	}
}

func checkAgainstReference(t *testing.T, cfg Config, seed uint64, wrap bool) {
	t.Helper()
	c := MustNew(cfg)
	r := newRef(c)
	rng := xorshift(seed * 0x9E3779B97F4A7C15)
	// A pool of ~3x capacity of distinct lines spread up to 2^41, so sets
	// fill, evict and revisit lines.
	pool := make([]uint64, 3*c.Lines()+2)
	for i := range pool {
		pool[i] = rng.next() & (1<<41 - 1) &^ (cfg.LineBytes - 1)
	}
	if wrap {
		c.tick = maxStamp - 3
	}
	for step := 0; step < 4000; step++ {
		if j := maxStamp - uint32(rng.next()%4); wrap && step%97 == 0 && j > c.tick {
			c.tick = j // jumping forward keeps every stamp in the past
		}
		addr := pool[rng.next()%uint64(len(pool))] + rng.next()%cfg.LineBytes
		write := rng.next()&1 == 0
		switch op := rng.next() % 6; op {
		case 0, 1:
			h, f := c.LookupFrame(addr, write)
			rh, rf := r.lookup(addr, write)
			if h != rh || f != rf {
				t.Fatalf("seed %d step %d: LookupFrame(%#x,%v) = (%v,%d), reference (%v,%d)", seed, step, addr, write, h, f, rh, rf)
			}
		case 2:
			if p, _ := r.peekDirty(addr); p {
				continue // Fill requires an absent line
			}
			v, f := c.FillFrame(addr, write)
			rv, rf := r.fill(addr, write)
			if v != rv || f != rf {
				t.Fatalf("seed %d step %d: FillFrame(%#x,%v) = (%+v,%d), reference (%+v,%d)", seed, step, addr, write, v, f, rv, rf)
			}
		case 3:
			p, d := c.Invalidate(addr)
			rp, rd := r.invalidate(addr)
			if p != rp || d != rd {
				t.Fatalf("seed %d step %d: Invalidate(%#x) = (%v,%v), reference (%v,%v)", seed, step, addr, p, d, rp, rd)
			}
		case 4:
			c.CleanLine(addr)
			r.clean(addr)
		case 5:
			p, d := c.PeekDirty(addr)
			rp, rd := r.peekDirty(addr)
			if p != rp || d != rd || c.Peek(addr) != rp {
				t.Fatalf("seed %d step %d: PeekDirty(%#x) = (%v,%v), reference (%v,%v)", seed, step, addr, p, d, rp, rd)
			}
		}
	}
	if c.Stats() != r.stats {
		t.Fatalf("seed %d: stats %+v, reference %+v", seed, c.Stats(), r.stats)
	}
	if c.Occupancy() != r.occupancy() {
		t.Fatalf("seed %d: occupancy %d, reference %d", seed, c.Occupancy(), r.occupancy())
	}
}

// TestRenormalisePreservesSetOrder checks the wrap path directly: after
// renormalisation every set's valid stamps are 1..n in their old order and
// the clock restarts above them.
func TestRenormalisePreservesSetOrder(t *testing.T) {
	c := MustNew(Config{Name: "rn", SizeBytes: 8 * 64, Ways: 4, LineBytes: 64})
	for i := uint64(0); i < 7; i++ { // set 0 gets lines 0,2,4,6; set 1 gets 1,3,5
		c.Fill(i*64, false)
	}
	c.Lookup(0, false) // line 0 becomes set 0's newest: stamps [8 3 5 7]
	c.tick = maxStamp
	c.Lookup(2*64, false) // wraps: ranks [4 1 2 3], then line 2 is stamped 5
	want0 := []uint32{4, 5, 2, 3}
	for i, w := range want0 {
		if c.stamps[i] != w {
			t.Fatalf("set 0 stamps %v, want %v", c.stamps[:4], want0)
		}
	}
	if got := c.stamps[4:7]; got[0] != 1 || got[1] != 2 || got[2] != 3 || c.tags[7] != 0 {
		t.Fatalf("set 1 stamps %v (tag of way 3 %#x), want [1 2 3] and an empty way", got, c.tags[7])
	}
	if c.tick != 5 {
		t.Fatalf("tick %d after wrap, want ways+1 = 5", c.tick)
	}
}
