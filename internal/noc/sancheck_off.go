//go:build !simcheck

package noc

// Without the simcheck build tag the sanitizer state is zero-size and the
// sanCheck* hook is an empty no-op the compiler erases. Build with `-tags
// simcheck` (make simcheck) to arm the implementation in sancheck_on.go.

type sanState struct{}

func (m *Mesh) sanCheckTraverse(from, to int, start, arrival, stall uint64) {}
