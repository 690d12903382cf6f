//go:build !simcheck

package cache

// Without the simcheck build tag the sanitizer state is zero-size and the
// sanCheck* hooks are empty no-ops the compiler erases; the zero-alloc
// benchmarks pin the release-build cost at zero. Build with `-tags
// simcheck` (make simcheck) to arm the implementations in sancheck_on.go.

type sanState struct{}

func (c *Cache) sanCheckTouch(setBase uint64) {}

func (c *Cache) sanCheckFill(setBase, want uint64, evicted bool) {}

func (c *Cache) sanCheckInvalidate(setBase uint64, removed bool) {}
