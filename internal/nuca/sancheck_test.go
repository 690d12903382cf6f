//go:build simcheck

package nuca

import (
	"strings"
	"testing"
)

// expectSancheckPanic runs f and asserts the armed sanitizer panicked with
// a message containing every fragment.
func expectSancheckPanic(t *testing.T, frags []string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("sanitizer did not catch the corruption")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		for _, frag := range frags {
			if !strings.Contains(msg, frag) {
				t.Errorf("panic %q does not name %q", msg, frag)
			}
		}
	}()
	f()
}

// TestSanitizerCatchesRequestBeforeHorizon books a bank for a request
// that starts before the cycle the LLC was advanced to — the one case in
// which dropping ended bookings would be inexact — and asserts the armed
// timeline sanitizer fires.
func TestSanitizerCatchesRequestBeforeHorizon(t *testing.T) {
	l := queueLLC(SNUCA)
	l.BankService(0, 100, true)
	l.Advance(500)
	expectSancheckPanic(t, []string{"sancheck:", "before the pruning horizon 500"}, func() {
		l.BankService(0, 400, false)
	})
}

// TestSanitizerAcceptsLegalQueueTraffic drives mixed, out-of-order
// read/write traffic with the sanitizer armed; no invariant may fire.
func TestSanitizerAcceptsLegalQueueTraffic(t *testing.T) {
	for _, l := range []*LLC{queueLLC(SNUCA), smallLLC(SNUCA)} {
		for i := uint64(0); i < 200; i++ {
			l.Advance(i)
			l.BankService(int(i%4), i+(i*37)%300, i%5 == 0)
		}
	}
}
