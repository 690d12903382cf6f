//go:build simcheck

package cache

import "repro/internal/sancheck"

// sanState carries the occupancy-conservation counters the armed sanitizer
// maintains alongside the real line array: live tracks fills minus
// evictions minus invalidations and must always equal the structural
// occupancy; events paces the full-array cross-check.
type sanState struct {
	live   uint64
	events uint64
}

// sanSweepInterval is how many mutation events pass between full
// Occupancy() cross-checks; per-event checks stay O(ways).
const sanSweepInterval = 4096

// sanCheckSet validates the structural invariants of one set: an empty
// way carries no stray dirty bit (Invalidate must fully scrub the frame),
// a valid way's stamp is not from the future, no two valid ways share a
// tag or a stamp (stamps are unique per cache between renormalisations,
// and victim choice depends on it).
func (c *Cache) sanCheckSet(setBase uint64) {
	tags := c.tags[setBase : setBase+c.ways]
	stamps := c.stamps[setBase : setBase+c.ways]
	set := setBase / c.ways
	for i, t := range tags {
		if t&tagMask == 0 {
			if t != 0 {
				sancheck.Failf("cache %s: set %d way %d is empty but carries the dirty bit (frame not scrubbed)",
					c.cfg.Name, set, i)
			}
			continue
		}
		if stamps[i] > c.tick {
			sancheck.Failf("cache %s: set %d way %d LRU stamp %d is ahead of the cache tick %d",
				c.cfg.Name, set, i, stamps[i], c.tick)
		}
		for j := i + 1; j < len(tags); j++ {
			if tags[j] == 0 {
				continue
			}
			if tags[j]&tagMask == t&tagMask {
				sancheck.Failf("cache %s: tag %#x duplicated in set %d (ways %d and %d)",
					c.cfg.Name, t&tagMask-1, set, i, j)
			}
			if stamps[j] == stamps[i] {
				sancheck.Failf("cache %s: LRU stamp %d duplicated in set %d (ways %d and %d)",
					c.cfg.Name, stamps[i], set, i, j)
			}
		}
	}
}

// sanAccount applies one occupancy delta and verifies conservation: the
// running fills-evictions-invalidations balance can never exceed capacity
// or go negative (a negative balance wraps and trips the capacity bound),
// dirty evictions can never outnumber evictions, and every
// sanSweepInterval events the balance is cross-checked against the
// structural Occupancy().
func (c *Cache) sanAccount(delta int64) {
	c.san.live += uint64(delta)
	if c.san.live > c.Lines() {
		sancheck.Failf("cache %s: occupancy conservation broken: %d live lines tracked against capacity %d",
			c.cfg.Name, int64(c.san.live), c.Lines())
	}
	if c.stats.DirtyEvicts > c.stats.Evictions {
		sancheck.Failf("cache %s: %d dirty evictions exceed %d total evictions",
			c.cfg.Name, c.stats.DirtyEvicts, c.stats.Evictions)
	}
	c.san.events++
	if c.san.events%sanSweepInterval == 0 {
		if occ := c.Occupancy(); occ != c.san.live {
			sancheck.Failf("cache %s: structural occupancy %d does not match conservation count %d",
				c.cfg.Name, occ, c.san.live)
		}
	}
}

func (c *Cache) sanCheckTouch(setBase uint64) {
	c.sanCheckSet(setBase)
}

// sanCheckFill also enforces the address bound the frame packing relies
// on: the stored tag+1 of the installed line is nonzero and below the
// dirty bit.
func (c *Cache) sanCheckFill(setBase, want uint64, evicted bool) {
	if want == 0 || want&dirtyBit != 0 {
		sancheck.Failf("cache %s: filled tag %#x does not fit below the dirty bit; the address is outside the simulated space",
			c.cfg.Name, want-1)
	}
	c.sanCheckSet(setBase)
	if evicted {
		c.sanAccount(0) // one in, one out
	} else {
		c.sanAccount(1)
	}
}

func (c *Cache) sanCheckInvalidate(setBase uint64, removed bool) {
	c.sanCheckSet(setBase)
	if removed {
		c.sanAccount(-1)
	} else {
		c.sanAccount(0)
	}
}
