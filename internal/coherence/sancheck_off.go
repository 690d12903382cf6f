//go:build !simcheck

package coherence

// The sanCheck* hooks compile to empty no-ops without the simcheck build
// tag. The invariantcall analyzer guarantees every exported state-mutating
// method calls them, and the zero-alloc benchmarks pin their release-build
// cost at zero; build with `-tags simcheck` (make simcheck) to arm the
// implementations in sancheck_on.go.

type sanState struct{}

func (d *Directory) sanCheckLine(addr uint64) {}

func (d *Directory) sanCheckTransition(addr uint64, prev State) {}
