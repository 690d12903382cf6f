//go:build simcheck

package coherence

import (
	"strings"
	"testing"
)

// TestSanitizerCatchesCorruptedSharers plants a torn sharer bitmask — an
// Exclusive line that claims two holders — and asserts the armed sanitizer
// kills the next directory operation with a diagnostic naming the line
// address and the offending cores. This is the failure mode the PR-3
// wrong-owner paddr bug would have produced had it reached the directory.
func TestSanitizerCatchesCorruptedSharers(t *testing.T) {
	d := MustNewDirectory(8, 64)
	const addr = 0x1000
	d.ReadAcquire(addr, 1) // line tracked E, owner 1

	i, _ := d.find(addr)
	d.slots[i].sharers |= 1 << 3 // corruption: phantom sharer on core 3

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("sanitizer did not panic on a corrupted sharer mask")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("sanitizer panicked with %T, want string", r)
		}
		for _, want := range []string{"sancheck:", "0x1000", "cores [1 3]", "owner", "state E"} {
			if !strings.Contains(msg, want) {
				t.Errorf("diagnostic %q does not mention %q", msg, want)
			}
		}
	}()
	d.WriteAcquire(addr, 1) // entry check must fire before the write repairs the mask
}

// TestSanitizerAcceptsLegalTraffic drives the full legal MESI walk
// (I->E->S->M->I, untracked no-ops, shootdown) with the sanitizer armed;
// any false positive in the transition matrix fails here.
func TestSanitizerAcceptsLegalTraffic(t *testing.T) {
	d := MustNewDirectory(4, 4)
	const addr = 0x2000
	d.ReadAcquire(addr, 0)    // I -> E
	d.ReadAcquire(addr, 1)    // E -> S (downgrade)
	d.WriteAcquire(addr, 1)   // S -> M (upgrade, invalidates core 0)
	d.Release(addr, 1, true)  // M -> I
	d.Release(addr, 1, false) // I -> I (untracked release is a no-op)
	d.WriteAcquire(addr, 2)   // I -> M
	if _, dirty := d.Shootdown(addr); !dirty {
		t.Fatal("shootdown of an M line must report dirty")
	}
}

// TestSanitizerCatchesOverfullTable plants one more tracked line than the
// bound the table was sized for and asserts the next operation panics.
func TestSanitizerCatchesOverfullTable(t *testing.T) {
	d := MustNewDirectory(2, 2)
	d.ReadAcquire(0x40, 0)
	d.count = d.limit + 1 // corruption: a population the hierarchy cannot hold
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "exceed the bound") {
			t.Fatalf("sanitizer panic %q, want a table-bound diagnostic", msg)
		}
	}()
	d.ReadAcquire(0x80, 1)
}

// TestSanitizerCatchesUnreachableLine empties a slot in the middle of a
// probe run without shifting its successors back, cutting a later line off
// from its home; the periodic sweep must notice.
func TestSanitizerCatchesUnreachableLine(t *testing.T) {
	d := MustNewDirectory(1, 8)
	// Two lines that share a home slot form a run of two.
	a := uint64(0x40)
	var b uint64
	for b = a + 0x40; d.home(b) != d.home(a); b += 0x40 {
	}
	d.ReadAcquire(a, 0)
	d.ReadAcquire(b, 0)
	i, _ := d.find(a)
	d.slots[i] = slot{} // corruption: a hole without the backward shift
	d.count--
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "probe run") {
			t.Fatalf("sanitizer panic %q, want an unreachable-line diagnostic", msg)
		}
	}()
	for n := 0; n < sanSweepInterval; n++ {
		d.StateOf(a)
		d.Release(0x1000, 0, false) // untracked: exercises the entry check only
	}
}
