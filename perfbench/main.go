// Command perfbench is the simulator's benchmark. It drives the library
// through its public API on one of four workloads, measures host time for
// --seconds, checks every simulation's output, and prints one JSON result
// as its last line: the end-to-end metrics from an untraced run (--trace
// 0), or the per-layer split from a traced run (--trace 1). See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
)

// workers is the policy suite's pool size. It is fixed rather than taken
// from the host so the suite does the same work everywhere; two matches
// the two-CPU hosts the benchmark was sized on.
const workers = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and the human-readable lines printed before the
// result.
type report struct {
	res   result
	notes []string
}

func newReport() *report { return &report{res: result{Metrics: map[string]metric{}}} }

func (r *report) set(name string, v float64, unit string) { r.res.Metrics[name] = metric{v, unit} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a simulation that errored or failed its output check.
func (r *report) fail(format string, args ...any) {
	r.res.Failed++
	r.note("FAIL "+format, args...)
}

func main() {
	wl := flag.String("workload", "", "workload: dram-stream, llc-resident, core-bound or policy-suite")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	traced := flag.Int("trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
	spansOut := flag.String("spans", "", "where the traced run writes its spans (default .bench_build/perfbench/spans-<workload>-<seed>.json)")
	flag.Parse()
	if err := run(*wl, *seed, *seconds, *traced, *spansOut); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced int, spansOut string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if spansOut == "" {
		spansOut = fmt.Sprintf(".bench_build/perfbench/spans-%s-%d.json", name, seed)
	}
	rep := newReport()
	rep.note("workload %s, seed %d, %.0f s, trace %d, %d CPUs, %s", name, seed, seconds, traced, runtime.NumCPU(), runtime.Version())
	budget := deadline{startNs: nowNs(), limitNs: int64(seconds * 1e9)}
	switch {
	case traced == 0 && w.pool == nil:
		untracedSuite(rep, seed, budget)
	case traced == 0:
		untracedSingle(rep, w, seed, budget)
	case traced == 1 && w.pool == nil:
		err = tracedSuite(rep, seed, budget, spansOut)
	case traced == 1:
		err = tracedSingle(rep, w, seed, budget, spansOut)
	default:
		return fmt.Errorf("--trace must be 0 or 1, not %d", traced)
	}
	if err != nil {
		return err
	}
	rep.res.Correct = rep.res.Failed == 0 && rep.res.Attempted > 0
	if rep.res.Attempted > 0 {
		rep.note("fail_frac %.4f ratio (%d of %d simulations)", float64(rep.res.Failed)/float64(rep.res.Attempted), rep.res.Failed, rep.res.Attempted)
	}
	if !rep.res.Correct {
		// A failed check withholds every measurement: numbers from wrong
		// output mean nothing.
		rep.res.Metrics = map[string]metric{}
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(rep.res.Metrics))
	for n := range rep.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.res.Metrics[n]
		fmt.Printf("%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(rep.res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// deadline decides whether another repetition fits the measuring time.
type deadline struct{ startNs, limitNs int64 }

// another reports whether a repetition expected to take expectNs still
// ends within the limit. The first repetition always runs.
func (d deadline) another(done int, expectNs float64) bool {
	if done == 0 {
		return true
	}
	return float64(nowNs()-d.startNs)+expectNs <= float64(d.limitNs)
}

// peakRSSMB is the process's peak resident memory.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
