//go:build simcheck

package cache

import (
	"strings"
	"testing"
)

// TestSanitizerCatchesDuplicateTag corrupts a set so two valid ways carry
// the same tag — the "line in two places" state the probe loop can never
// produce itself — and asserts the armed sanitizer panics on the next
// touch, naming the cache, tag, and set.
func TestSanitizerCatchesDuplicateTag(t *testing.T) {
	c := MustNew(Config{Name: "L1-test", SizeBytes: 8 * 64, Ways: 2, LineBytes: 64})
	c.Fill(0, false)      // set 0, tag 0
	c.Fill(4*64, false)   // set 0, tag 1
	c.tags[1] = c.tags[0] // corrupt: duplicate tag in set 0

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("sanitizer did not catch the duplicated tag")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		for _, frag := range []string{"sancheck:", "L1-test", "duplicated in set 0"} {
			if !strings.Contains(msg, frag) {
				t.Errorf("panic %q does not name %q", msg, frag)
			}
		}
	}()
	c.Lookup(0, false)
}

// TestSanitizerCatchesOutOfRangeAddress fills a line whose tag does not fit
// below the dirty bit — an address outside the simulated space, which the
// frame packing cannot represent — and asserts the fill panics.
func TestSanitizerCatchesOutOfRangeAddress(t *testing.T) {
	c := MustNew(Config{Name: "wide", SizeBytes: 2, Ways: 1, LineBytes: 2})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("sanitizer did not catch an out-of-range fill")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "outside the simulated space") {
			t.Errorf("panic %q does not name the address bound", msg)
		}
	}()
	c.Fill(^uint64(0), false) // tag 2^63-1: tag+1 is the dirty bit
}

// TestSanitizerCatchesDuplicateStamp gives two valid ways of a set the same
// LRU stamp, which would make victim choice depend on way order.
func TestSanitizerCatchesDuplicateStamp(t *testing.T) {
	c := MustNew(Config{Name: "stamp", SizeBytes: 8 * 64, Ways: 2, LineBytes: 64})
	c.Fill(0, false)
	c.Fill(4*64, false)
	c.stamps[1] = c.stamps[0]
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "LRU stamp") {
			t.Fatalf("sanitizer panic %q, want a duplicated-stamp diagnostic", msg)
		}
	}()
	c.Lookup(0, false)
}

// TestSanitizerAcceptsLegalTraffic walks fill/hit/evict/invalidate through
// a tiny cache with the sanitizer armed; no invariant may fire.
func TestSanitizerAcceptsLegalTraffic(t *testing.T) {
	c := MustNew(Config{Name: "ok", SizeBytes: 8 * 64, Ways: 2, LineBytes: 64})
	for i := uint64(0); i < 16; i++ { // wraps the 4-set cache twice: fills + evictions
		c.Fill(i*64, i%3 == 0)
	}
	c.Lookup(15*64, true)
	c.Invalidate(15 * 64)
	c.Invalidate(0) // long evicted: miss path
}
