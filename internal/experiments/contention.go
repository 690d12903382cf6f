package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/nuca"
)

// ContentionResult is the bank contention study: the five policy suites of
// one variant re-examined through the reservation calendars' eyes —
// sniper-style op-history transition counts, waiting totals, out-of-order
// arrivals per resource kind and the per-bank read/write service-latency
// histograms, aggregated over all ten workloads exactly as the suite
// aggregates IPC.
type ContentionResult struct {
	Variant      string
	VariantLabel string
	// Policies holds the policy names in canonical core.Policies() order;
	// the maps are keyed by those names.
	Policies []string
	Queue    map[string]nuca.QueueStats
	// NoCOutOfOrder and DRAMOutOfOrder are the out-of-order arrivals on
	// NoC links and on DRAM banks and buses (the LLC banks' count is
	// Queue[name].OutOfOrder).
	NoCOutOfOrder  map[string]uint64
	DRAMOutOfOrder map[string]uint64
	Service        map[string][]nuca.BankServiceStats
}

// Contention reads the variant's memoised five-policy suite — the same
// simulations every other experiment of the variant shares — and collects
// its contention statistics.
func (r *Runner) Contention(v Variant) (*ContentionResult, error) {
	set, err := r.suiteSet(v)
	if err != nil {
		return nil, err
	}
	res := &ContentionResult{
		Variant:        v.Key,
		VariantLabel:   v.Label,
		Queue:          make(map[string]nuca.QueueStats, len(set)),
		NoCOutOfOrder:  make(map[string]uint64, len(set)),
		DRAMOutOfOrder: make(map[string]uint64, len(set)),
		Service:        make(map[string][]nuca.BankServiceStats, len(set)),
	}
	for _, p := range core.Policies() {
		name := p.String()
		res.Policies = append(res.Policies, name)
		sr := set[name]
		res.Queue[name] = sr.LLC.Queue
		res.NoCOutOfOrder[name] = sr.NoC.OutOfOrder
		res.DRAMOutOfOrder[name] = sr.DRAM.OutOfOrder
		res.Service[name] = sr.BankService
	}
	return res, nil
}

// Render prints the op-history table and the per-bank service-latency
// histograms. Histogram buckets are log2 cycle ranges; a bank's line shows
// its sample totals and the non-empty buckets as "range:count" pairs.
func (cr *ContentionResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Bank contention study (%s): reservation calendars, all 10 workloads\n", cr.VariantLabel)
	fmt.Fprintf(&b, "%-9s %9s %9s %9s %9s %9s %12s %9s %12s\n",
		"policy", "RAR", "RAW", "WAR", "WAW", "rd queued", "rd wait[cyc]", "wr queued", "wr wait[cyc]")
	for _, name := range cr.Policies {
		q := cr.Queue[name]
		fmt.Fprintf(&b, "%-9s %9d %9d %9d %9d %9d %12d %9d %12d\n",
			name, q.RAR, q.RAW, q.WAR, q.WAW,
			q.ReadQueued, q.ReadWaitCycles, q.WriteQueued, q.WriteWaitCycles)
	}
	b.WriteString("(RAW/WAR count reads following ReRAM writes on the same resident line)\n")
	fmt.Fprintf(&b, "\nOut-of-order arrivals (requests starting before their resource's latest booking)\n")
	fmt.Fprintf(&b, "%-9s %12s %12s %12s\n", "policy", "LLC banks", "NoC links", "DRAM bk+bus")
	for _, name := range cr.Policies {
		fmt.Fprintf(&b, "%-9s %12d %12d %12d\n",
			name, cr.Queue[name].OutOfOrder, cr.NoCOutOfOrder[name], cr.DRAMOutOfOrder[name])
	}
	for _, name := range cr.Policies {
		svc := cr.Service[name]
		fmt.Fprintf(&b, "\n%s per-bank service latency [cycles, log2 buckets]\n", name)
		for bank, s := range svc {
			fmt.Fprintf(&b, "  bank %2d  reads %7d: %s\n", bank, s.Read.Total(), s.Read.String())
			fmt.Fprintf(&b, "           writes %6d: %s\n", s.Write.Total(), s.Write.String())
		}
	}
	return b.String()
}
