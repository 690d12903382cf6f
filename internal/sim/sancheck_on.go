//go:build simcheck

package sim

import (
	"repro/internal/cache"
	"repro/internal/sancheck"
)

// sanCheckAbsent asserts that the walk fills a private cache only with a
// line it has just missed there; a present line would mean a second copy
// in the set, or a fill the walk did not account for.
func sanCheckAbsent(c *cache.Cache, pa uint64) {
	if c.Peek(pa) {
		sancheck.Failf("sim: filling %s with line %#x that is already present", c.Config().Name, pa)
	}
}
