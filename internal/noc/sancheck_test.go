//go:build simcheck

package noc

import (
	"strings"
	"testing"
)

// TestSanitizerCatchesLostFlit unbalances the conservation counters — as a
// future asynchronous NoC model would if it dropped a message — and
// asserts the armed sanitizer panics on the next traversal.
func TestSanitizerCatchesLostFlit(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.san.injected++ // corrupt: one message in flight forever

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("sanitizer did not catch the lost flit")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		for _, frag := range []string{"sancheck:", "flit conservation"} {
			if !strings.Contains(msg, frag) {
				t.Errorf("panic %q does not name %q", msg, frag)
			}
		}
	}()
	m.CtrlTraverse(0, 5, 100)
}

// TestSanitizerAcceptsLegalTraffic drives contended traversals in both
// directions with the sanitizer armed; the latency identity must hold.
func TestSanitizerAcceptsLegalTraffic(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 200; i++ {
		from, to := int(i)%m.Tiles(), int(3*i)%m.Tiles()
		m.DataTraverse(from, to, i)
		m.CtrlTraverse(to, from, i)
	}
}
