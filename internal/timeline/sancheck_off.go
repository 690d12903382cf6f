//go:build !simcheck

package timeline

// Without the simcheck build tag the sanCheck* hooks are empty no-ops the
// compiler erases. Build with `-tags simcheck` (make simcheck) to arm the
// implementations in sancheck_on.go.

func sanCheckReserve(tail span, older []span, now, start, begin, dur uint64) {}

func sanCheckAdvance(was, now uint64) {}
