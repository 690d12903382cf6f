//go:build !simcheck

package sim

import "repro/internal/cache"

// sanCheckAbsent is a no-op without the simcheck build tag; the armed
// version in sancheck_on.go asserts the walk's fills target absent lines.
func sanCheckAbsent(c *cache.Cache, pa uint64) {}
