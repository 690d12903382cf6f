package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/stats"
)

// LifetimeResult carries the per-bank harmonic-mean lifetimes, raw minimum
// lifetimes, mean IPCs and per-workload IPC improvements of one variant's
// five-policy suite — the data behind Figures 3, 4, 11, 12, 13, 14, 15, 16,
// 17, 18 and Table III.
type LifetimeResult struct {
	Variant            string
	VariantLabel       string
	Policies           []string
	Workloads          []string
	PerBankHMean       map[string][]float64 // policy -> 16 per-bank h-mean lifetimes (years)
	RawMin             map[string]float64   // policy -> raw minimum lifetime (years)
	HMean              map[string]float64   // policy -> h-mean lifetime over banks+workloads
	MeanIPC            map[string]float64   // policy -> mean IPC over workloads
	PerWLIPC           map[string][]float64 // policy -> per-workload mean IPC
	ImprovementVsSNUCA map[string][]float64 // policy -> per-workload IPC improvement [%]
}

// Lifetime runs (or reuses) the five-policy suite for a variant and
// assembles the lifetime/IPC aggregates.
func (r *Runner) Lifetime(v Variant) (LifetimeResult, error) {
	set, err := r.suiteSet(v)
	if err != nil {
		return LifetimeResult{}, err
	}
	res := LifetimeResult{
		Variant:            v.Key,
		VariantLabel:       v.Label,
		PerBankHMean:       map[string][]float64{},
		RawMin:             map[string]float64{},
		HMean:              map[string]float64{},
		MeanIPC:            map[string]float64{},
		PerWLIPC:           map[string][]float64{},
		ImprovementVsSNUCA: map[string][]float64{},
	}
	for _, p := range core.Policies() {
		res.Policies = append(res.Policies, p.String())
	}
	for _, wl := range r.workloads() {
		res.Workloads = append(res.Workloads, wl.Name)
	}
	for name, sr := range set {
		res.PerBankHMean[name] = sr.BankHMeanLifetimes
		res.RawMin[name] = sr.RawMinLifetime
		res.HMean[name] = sr.HMeanLifetime
		res.MeanIPC[name] = sr.MeanIPC
		var perWL []float64
		for _, rep := range sr.Reports {
			perWL = append(perWL, rep.MeanIPC)
		}
		res.PerWLIPC[name] = perWL
	}
	base := res.PerWLIPC["S-NUCA"]
	for name, perWL := range res.PerWLIPC {
		var impr []float64
		for i, ipc := range perWL {
			impr = append(impr, stats.PercentImprovement(ipc, base[i]))
		}
		res.ImprovementVsSNUCA[name] = impr
	}
	return res, nil
}

// paperTable3 is Table III verbatim (raw minimum lifetimes in years).
var paperTable3 = map[string]map[string]float64{
	"actual":  {"Naive": 4.95, "S-NUCA": 3.37, "Re-NUCA": 3.24, "R-NUCA": 2.38, "Private": 2.32},
	"l2-128":  {"Naive": 7.14, "S-NUCA": 3.9, "Re-NUCA": 3.09, "R-NUCA": 2.31, "Private": 2.31},
	"l3-1m":   {"Naive": 3.64, "S-NUCA": 1.67, "Re-NUCA": 1.67, "R-NUCA": 1.38, "Private": 1.38},
	"rob-168": {"Naive": 7.06, "S-NUCA": 3.26, "Re-NUCA": 3.26, "R-NUCA": 2.33, "Private": 2.32},
}

// RenderPerBank prints a Figure 3/12/13/15/17-style per-bank harmonic-mean
// lifetime table for the chosen policies.
func (lr LifetimeResult) RenderPerBank(title string, policies []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (variant %s): per-bank harmonic-mean lifetime [years]\n", title, lr.VariantLabel)
	fmt.Fprintf(&b, "%-8s", "bank")
	for _, p := range policies {
		fmt.Fprintf(&b, " %9s", p)
	}
	fmt.Fprintln(&b)
	for bank := 0; bank < len(lr.PerBankHMean[policies[0]]); bank++ {
		fmt.Fprintf(&b, "CB-%-5d", bank)
		for _, p := range policies {
			fmt.Fprintf(&b, " %9.2f", lr.PerBankHMean[p][bank])
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-8s", "min/max")
	for _, p := range policies {
		ls := lr.PerBankHMean[p]
		fmt.Fprintf(&b, " %4.1f/%4.1f", stats.Min(ls), stats.Max(ls))
	}
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "%-8s", "CV")
	for _, p := range policies {
		fmt.Fprintf(&b, " %9.3f", stats.CoeffVariation(lr.PerBankHMean[p]))
	}
	fmt.Fprintln(&b)
	return b.String()
}

// RenderFigure4 prints the lifetime-vs-IPC trade-off points of Figure 4(b).
func (lr LifetimeResult) RenderFigure4(policies []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4(b): performance vs lifetime trade-off (variant %s)\n", lr.VariantLabel)
	fmt.Fprintf(&b, "%-9s %9s %18s %15s\n", "policy", "mean IPC", "h-mean life [y]", "raw min [y]")
	for _, p := range policies {
		fmt.Fprintf(&b, "%-9s %9.3f %18.2f %15.2f\n", p, lr.MeanIPC[p], lr.HMean[p], lr.RawMin[p])
	}
	return b.String()
}

// RenderIPCImprovements prints a Figure 11/14/16/18-style table: per-workload
// IPC improvement over S-NUCA for R-NUCA, Private and Re-NUCA.
func (lr LifetimeResult) RenderIPCImprovements(title string) string {
	policies := []string{"R-NUCA", "Private", "Re-NUCA"}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (variant %s): IPC improvement over S-NUCA [%%]\n", title, lr.VariantLabel)
	fmt.Fprintf(&b, "%-6s", "WL")
	for _, p := range policies {
		fmt.Fprintf(&b, " %9s", p)
	}
	fmt.Fprintln(&b)
	for i, wl := range lr.Workloads {
		fmt.Fprintf(&b, "%-6s", wl)
		for _, p := range policies {
			fmt.Fprintf(&b, " %9.2f", lr.ImprovementVsSNUCA[p][i])
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-6s", "Avg")
	for _, p := range policies {
		fmt.Fprintf(&b, " %9.2f", stats.Mean(lr.ImprovementVsSNUCA[p]))
	}
	fmt.Fprintln(&b)
	return b.String()
}

// Table3Result is the raw-minimum-lifetime matrix of Table III.
type Table3Result struct {
	Rows []LifetimeResult // one per variant, in Variants() order
}

// Table3 runs all four variants' suites. The variants fan out concurrently
// — each Lifetime call deduplicates through the Runner's suite singleflight
// and its simulations gate on the shared pool — and the rows land in
// Variants() order.
func (r *Runner) Table3() (Table3Result, error) {
	variants := Variants()
	out := Table3Result{Rows: make([]LifetimeResult, len(variants))}
	err := pool.Coordinate(len(variants), func(i int) error {
		var err error
		out.Rows[i], err = r.Lifetime(variants[i])
		return err
	})
	if err != nil {
		return Table3Result{}, err
	}
	return out, nil
}

// Render prints Table III with the paper's values interleaved.
func (t Table3Result) Render() string {
	policies := []string{"Naive", "S-NUCA", "Re-NUCA", "R-NUCA", "Private"}
	var b strings.Builder
	fmt.Fprintf(&b, "Table III: raw minimum lifetimes [years] (measured / paper)\n")
	fmt.Fprintf(&b, "%-15s", "configuration")
	for _, p := range policies {
		fmt.Fprintf(&b, " %13s", p)
	}
	fmt.Fprintln(&b)
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "%-15s", row.VariantLabel)
		for _, p := range policies {
			paper := paperTable3[row.Variant][p]
			fmt.Fprintf(&b, "  %5.2f/%5.2f", row.RawMin[p], paper)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// PaperTable3 exposes the paper's Table III values (for EXPERIMENTS.md).
func PaperTable3(variant, policy string) float64 { return paperTable3[variant][policy] }
