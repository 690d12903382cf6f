package experiments

import (
	"strings"
	"sync"
	"testing"
)

// renderSuiteOutputs regenerates every rendered view of the "actual"
// variant's five-policy suite under the given worker count.
func renderSuiteOutputs(t *testing.T, p Params) string {
	t.Helper()
	return renderSuiteOutputsOn(t, NewRunner(p))
}

// renderSuiteOutputsOn is renderSuiteOutputs on a caller-built Runner, so
// the shard tests can render through a Runner with Exec wired in.
func renderSuiteOutputsOn(t *testing.T, r *Runner) string {
	t.Helper()
	lr, err := r.Lifetime(mustVariant("actual"))
	if err != nil {
		t.Fatal(err)
	}
	cr, err := r.Contention(mustVariant("actual"))
	if err != nil {
		t.Fatal(err)
	}
	return lr.RenderPerBank("Figure 3", []string{"S-NUCA", "R-NUCA", "Private", "Naive"}) +
		lr.RenderFigure4([]string{"Naive", "S-NUCA", "Re-NUCA", "R-NUCA", "Private"}) +
		lr.RenderIPCImprovements("Figure 11") +
		cr.Render()
}

// TestParallelDeterminism is the determinism regression guard for the
// worker-pool harness: a suite rendered with Workers=1 must be
// byte-identical to the same suite rendered with Workers=8, and two
// parallel runs with the same seed must agree with each other.
func TestParallelDeterminism(t *testing.T) {
	serialP := tinyParams()
	serialP.Workers = 1
	parallelP := tinyParams()
	parallelP.Workers = 8

	serial := renderSuiteOutputs(t, serialP)
	parallel := renderSuiteOutputs(t, parallelP)
	parallel2 := renderSuiteOutputs(t, parallelP)

	if serial != parallel {
		t.Errorf("Workers=1 and Workers=8 outputs differ:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if parallel != parallel2 {
		t.Errorf("two Workers=8 runs with the same seed differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", parallel, parallel2)
	}
	if !strings.Contains(serial, "CB-15") {
		t.Error("rendered output incomplete")
	}
}

// TestConcurrentExperimentLaunch exercises the singleflight path the cmd
// tools rely on: many goroutines demanding experiments that share the same
// suite must each get the full result while the suite simulates only once.
func TestConcurrentExperimentLaunch(t *testing.T) {
	r := NewRunner(tinyParams())
	v := mustVariant("actual")
	const callers = 8
	outs := make([]string, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lr, err := r.Lifetime(v)
			if err != nil {
				t.Error(err)
				return
			}
			outs[i] = lr.RenderPerBank("Figure 3", []string{"S-NUCA", "R-NUCA", "Private", "Naive"})
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if outs[i] != outs[0] {
			t.Fatalf("caller %d saw a different suite result", i)
		}
	}
	// One suite = 5 policies x 10 workloads, deduplicated across callers.
	if got := r.Sims(); got != 50 {
		t.Errorf("ran %d sims, want 50 (singleflight dedup)", got)
	}
	if got := r.suiteFlight.Len(); got != 1 {
		t.Errorf("suite cache holds %d entries, want 1", got)
	}
}

// TestSeedSensitivity guards the other direction: different seeds must
// produce different suite results (the derivation must actually thread the
// seed through).
func TestSeedSensitivity(t *testing.T) {
	p1 := tinyParams()
	p2 := tinyParams()
	p2.Seed = p1.Seed + 1
	if renderSuiteOutputs(t, p1) == renderSuiteOutputs(t, p2) {
		t.Error("different seeds produced identical suite output")
	}
}
