package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/energy"
)

// EnergyPoint is one (policy, technology) energy estimate over WL1.
type EnergyPoint struct {
	Policy    string
	Breakdown energy.Breakdown
}

// EnergyStudy estimates the LLC/DRAM/NoC energy of each NUCA policy on WL1
// under both LLC technologies — the paper's Section I motivation ("standby
// power is up to 80% of total" for SRAM LLCs; ReRAM's near-zero standby is
// why its endurance problem is worth solving). It simulates nothing: it
// reads WL1's reports from the memoised "actual" suite, the very runs
// Figure 4 reports, and the technology comparison is post-processing of
// each run (SRAM at slot 2i, ReRAM at 2i+1).
func (r *Runner) EnergyStudy() ([]EnergyPoint, error) {
	set, err := r.suiteSet(mustVariant("actual"))
	if err != nil {
		return nil, err
	}
	var out []EnergyPoint
	for _, p := range core.Policies() {
		rep := set[p.String()].Reports[0] // WL1: reports are in workload order
		for _, tech := range []energy.Technology{energy.SRAM(), energy.ReRAM()} {
			b, err := energy.Estimate(tech, rep.Energy)
			if err != nil {
				return nil, fmt.Errorf("energy study %s: %w", p, err)
			}
			out = append(out, EnergyPoint{Policy: rep.Policy, Breakdown: b})
		}
	}
	return out, nil
}

// RenderEnergyStudy prints the per-policy, per-technology breakdown.
func RenderEnergyStudy(points []EnergyPoint) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Energy study on WL1: LLC technology comparison (motivation, paper §I)")
	fmt.Fprintf(&b, "%-9s %-6s %12s %12s %9s %8s %8s %8s %10s %12s\n",
		"policy", "tech", "LLC dyn[mJ]", "LLC leak[mJ]", "DRAM dyn", "DRAM bg", "NoC rtr", "NoC lnk", "total[mJ]", "leak share")
	for _, p := range points {
		bd := p.Breakdown
		fmt.Fprintf(&b, "%-9s %-6s %12.3f %12.3f %9.3f %8.3f %8.3f %8.3f %10.3f %11.0f%%\n",
			p.Policy, bd.Technology, bd.LLCDynamic, bd.LLCLeakage,
			bd.DRAMDynamic, bd.DRAMBackground, bd.NoCRouter, bd.NoCLink,
			bd.Total(), 100*bd.LeakageShare())
	}
	b.WriteString("(SRAM's LLC energy is leakage-dominated — the paper's case for ReRAM;\n")
	b.WriteString(" ReRAM pays more per write, which is why its wear must be levelled)\n")
	return b.String()
}
