package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeDoc marshals a summary document into dir and returns its path.
func writeDoc(t *testing.T, dir, name string, benchmarks []Entry) string {
	t.Helper()
	b, err := json.Marshal(Doc{Benchmarks: benchmarks})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunGuard pins the perf-guard decision table CI relies on: small drops
// and gains pass, drops beyond the threshold fail, a benchmark absent from
// the baseline passes with a warning (the commit introducing a benchmark
// must not fail its own guard), and a benchmark absent from the current
// summary fails (it silently vanished from the bench run).
func TestRunGuard(t *testing.T) {
	const guard = "BenchmarkSuiteThroughput/pool"
	dir := t.TempDir()
	base := writeDoc(t, dir, "base.json", []Entry{{Name: guard, PerSec: 1.0}})
	cases := []struct {
		name     string
		current  []Entry
		maxDrop  float64
		wantCode int
		wantMsg  string
	}{
		{"within threshold", []Entry{{Name: guard, PerSec: 0.95}}, 10, 0, "guard OK"},
		{"gain", []Entry{{Name: guard, PerSec: 1.4}}, 10, 0, "guard OK"},
		{"at threshold", []Entry{{Name: guard, PerSec: 0.90}}, 10, 0, "guard OK"},
		{"beyond threshold", []Entry{{Name: guard, PerSec: 0.85}}, 10, 1, "guard FAIL"},
		{"collapse", []Entry{{Name: guard, PerSec: 0.01}}, 10, 1, "guard FAIL"},
		{"missing from current", []Entry{{Name: "BenchmarkOther", PerSec: 5}}, 10, 1, "missing from"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := writeDoc(t, dir, "cur.json", tc.current)
			var out strings.Builder
			if code := runGuard(&out, base, cur, guard, tc.maxDrop); code != tc.wantCode {
				t.Fatalf("exit code %d, want %d (output: %s)", code, tc.wantCode, out.String())
			}
			if !strings.Contains(out.String(), tc.wantMsg) {
				t.Errorf("output %q does not contain %q", out.String(), tc.wantMsg)
			}
		})
	}

	t.Run("missing from baseline passes", func(t *testing.T) {
		emptyBase := writeDoc(t, dir, "empty.json", []Entry{{Name: "BenchmarkOther", PerSec: 5}})
		cur := writeDoc(t, dir, "cur.json", []Entry{{Name: guard, PerSec: 0.5}})
		var out strings.Builder
		if code := runGuard(&out, emptyBase, cur, guard, 10); code != 0 {
			t.Fatalf("new benchmark failed its introducing guard: code %d, output %s", code, out.String())
		}
		if !strings.Contains(out.String(), "not in baseline") {
			t.Errorf("output %q does not explain the baseline miss", out.String())
		}
	})

	t.Run("unreadable baseline fails", func(t *testing.T) {
		cur := writeDoc(t, dir, "cur.json", []Entry{{Name: guard, PerSec: 1}})
		var out strings.Builder
		if code := runGuard(&out, filepath.Join(dir, "absent.json"), cur, guard, 10); code != 1 {
			t.Fatalf("unreadable baseline returned %d, want 1", code)
		}
	})

	t.Run("missing flags usage error", func(t *testing.T) {
		var out strings.Builder
		if code := runGuard(&out, base, "", "", 10); code != 2 {
			t.Fatalf("missing -current/-guard returned %d, want 2", code)
		}
	})
}
