//go:build simcheck

package timeline

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

// TestSanitizerCatchesOverlap corrupts two bookings into overlapping and
// asserts the next booking trips the interval check.
func TestSanitizerCatchesOverlap(t *testing.T) {
	c := newOne()
	c.Reserve(0, 10)
	c.Reserve(20, 10)
	c.older[0][0].end = 25 // corrupt: [0,25) overlaps the tail [20,30)
	expectSancheckPanic(t, []string{"sancheck:", "overlap"}, func() {
		c.Reserve(40, 5)
	})
}

// TestSanitizerCatchesSkippedGap reports a begin past a free gap that
// could have held the request — the FIFO model's error — and asserts the
// earliest-gap check fires.
func TestSanitizerCatchesSkippedGap(t *testing.T) {
	c := newOne()
	c.Reserve(0, 10)
	c.Reserve(100, 10)
	expectSancheckPanic(t, []string{"sancheck:", "skipping the free gap [10,100)"}, func() {
		sanCheckReserve(c.tails[0], c.older[0], 0, 5, 110, 4)
	})
}

// TestSanitizerCatchesRequestBeforeHorizon books a request that starts
// before the horizon, where dropping ended bookings would be inexact.
func TestSanitizerCatchesRequestBeforeHorizon(t *testing.T) {
	c := newOne()
	c.Advance(50)
	expectSancheckPanic(t, []string{"sancheck:", "before the pruning horizon 50"}, func() {
		c.Reserve(40, 5)
	})
}

// TestSanitizerCatchesHorizonRewind moves a set's horizon backwards.
func TestSanitizerCatchesHorizonRewind(t *testing.T) {
	s := NewSet(2)
	s.Advance(100)
	expectSancheckPanic(t, []string{"sancheck:", "moved back from 100 to 90"}, func() {
		s.Advance(90)
	})
}
