package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// AblationPoint measures Re-NUCA on one workload at one criticality
// threshold — the design-choice sweep DESIGN.md calls out (the paper fixes
// x=3% from single-core data; this ablation confirms the choice end-to-end).
type AblationPoint struct {
	ThresholdPct    float64
	MeanIPC         float64
	MinLifetime     float64
	HMeanLifetime   float64
	CriticalFillPct float64 // share of LLC fills placed via R-NUCA
	FallbackHitPct  float64 // share of LLC hits found by the fallback probe
}

// Ablation sweeps the Re-NUCA criticality threshold on WL1. Every point
// shares the same seed so only the threshold varies along the series.
func (r *Runner) Ablation() ([]AblationPoint, error) {
	wl := r.workloads()[0]
	thresholds := []float64{1, 3, 10, 33, 100}
	units := make([]core.Unit, len(thresholds))
	for i, th := range thresholds {
		o := r.options(core.ReNUCA)
		o.Apps = wl.Apps
		o.CriticalityThresholdPct = th
		units[i] = core.Unit{ID: fmt.Sprintf("ablation/x=%g/%s", th, wl.Name), Workload: wl.Name, Opts: o}
	}
	reps, err := r.runUnits("ablation", units)
	if err != nil {
		return nil, err
	}
	out := make([]AblationPoint, len(reps))
	for i, rep := range reps {
		critPct := 0.0
		if rep.LLC.Fills > 0 {
			critPct = 100 * float64(rep.LLC.CriticalFills) / float64(rep.LLC.Fills)
		}
		fbPct := 0.0
		if h := rep.LLC.ReadHits + rep.LLC.WritebackHits; h > 0 {
			fbPct = 100 * float64(rep.LLC.FallbackHits) / float64(h)
		}
		out[i] = AblationPoint{
			ThresholdPct:    thresholds[i],
			MeanIPC:         rep.MeanIPC,
			MinLifetime:     rep.MinLifetime,
			HMeanLifetime:   stats.HarmonicMean(rep.BankLifetimes),
			CriticalFillPct: critPct,
			FallbackHitPct:  fbPct,
		}
	}
	return out, nil
}

// RenderAblation prints the threshold ablation table.
func RenderAblation(points []AblationPoint) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation: Re-NUCA criticality threshold on WL1")
	fmt.Fprintf(&b, "%8s %9s %12s %13s %14s %13s\n",
		"x[%]", "mean IPC", "min life[y]", "h-mean[y]", "crit fills[%]", "fb hits[%]")
	for _, p := range points {
		fmt.Fprintf(&b, "%8.0f %9.3f %12.2f %13.2f %14.1f %13.2f\n",
			p.ThresholdPct, p.MeanIPC, p.MinLifetime, p.HMeanLifetime,
			p.CriticalFillPct, p.FallbackHitPct)
	}
	b.WriteString("(higher x flags fewer lines critical: lifetime approaches S-NUCA, latency benefit shrinks)\n")
	return b.String()
}

// RotationPoint measures the i2wap-style intra-bank rotation extension
// (Section VI calls intra-bank schemes complementary to Re-NUCA): rotation
// spreads each bank's hot frames over its whole capacity, so the
// first-failure lifetime approaches the capacity lifetime while inter-bank
// numbers are untouched.
type RotationPoint struct {
	Rotation        bool
	MinCapacity     float64 // worst bank, capacity lifetime [y]
	MinFirstFailure float64 // worst bank, hottest-frame lifetime [y]
	MeanIPC         float64
}

// RotationAblation runs Re-NUCA with the intra-bank extension off and on.
// Intra-bank leveling only matters where individual frames accumulate many
// writes, so this ablation uses a write-back-concentrated mix (the
// omnetpp/xalancbmk class: LLC-resident working sets re-dirtied pass after
// pass) and a longer window than the policy suites — with short windows
// the hottest frame holds only a couple of writes and the metric is
// quantisation noise.
func (r *Runner) RotationAblation() ([]RotationPoint, error) {
	apps := make([]string, 16)
	for i := range apps {
		if i%2 == 0 {
			apps[i] = "omnetpp"
		} else {
			apps[i] = "xalancbmk"
		}
	}
	var units []core.Unit
	for _, rot := range []bool{false, true} {
		o := r.options(core.ReNUCA)
		o.InstrPerCore = 10 * r.P.InstrPerCore
		o.Apps = apps
		o.IntraBankWL = rot
		units = append(units, core.Unit{ID: fmt.Sprintf("rotation/%v", rot), Workload: "omnetpp-xalancbmk", Opts: o})
	}
	reps, err := r.runUnits("rotation", units)
	if err != nil {
		return nil, err
	}
	out := make([]RotationPoint, len(reps))
	for i, rep := range reps {
		out[i] = RotationPoint{
			Rotation:        units[i].Opts.IntraBankWL,
			MinCapacity:     rep.MinLifetime,
			MinFirstFailure: rep.MinFirstFailure(),
			MeanIPC:         rep.MeanIPC,
		}
	}
	return out, nil
}

// RenderRotationAblation prints the rotation on/off comparison.
func RenderRotationAblation(points []RotationPoint) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation: intra-bank rotation (i2wap-style) under Re-NUCA, omnetpp/xalancbmk mix")
	fmt.Fprintf(&b, "%10s %18s %22s %10s\n", "rotation", "min capacity[y]", "min first-failure[y]", "mean IPC")
	for _, p := range points {
		fmt.Fprintf(&b, "%10v %18.2f %22.2f %10.3f\n",
			p.Rotation, p.MinCapacity, p.MinFirstFailure, p.MeanIPC)
	}
	b.WriteString("(rotation levels wear within banks: first-failure climbs toward capacity;\n")
	b.WriteString(" inter-bank leveling — Re-NUCA's job — is unaffected)\n")
	return b.String()
}

// WriteLatencyPoint measures how the ReRAM write-read latency asymmetry —
// the technology problem the paper's introduction cites — affects the
// policies. Writes are posted, so the damage arrives indirectly: slow
// writes occupy banks and delay the reads queued behind them, and policies
// that concentrate writes (R-NUCA, Private) concentrate that interference.
type WriteLatencyPoint struct {
	WriteLatency uint32
	Policy       string
	MeanIPC      float64
	MinLifetime  float64
}

// WriteLatencyAblation sweeps the ReRAM write latency on WL1 for R-NUCA
// and Re-NUCA: six (latency, policy) units in one batch.
func (r *Runner) WriteLatencyAblation() ([]WriteLatencyPoint, error) {
	wl := r.workloads()[0]
	latencies := []uint32{100, 200, 400}
	policies := []core.Policy{core.RNUCA, core.ReNUCA}
	units := make([]core.Unit, 0, len(latencies)*len(policies))
	for _, wlat := range latencies {
		for _, p := range policies {
			o := r.options(p)
			o.Apps = wl.Apps
			o.ReRAMWriteLatency = wlat
			units = append(units, core.Unit{ID: fmt.Sprintf("writelat/%d/%s/%s", wlat, p, wl.Name), Workload: wl.Name, Opts: o})
		}
	}
	reps, err := r.runUnits("writelat", units)
	if err != nil {
		return nil, err
	}
	out := make([]WriteLatencyPoint, len(reps))
	for i, rep := range reps {
		out[i] = WriteLatencyPoint{
			WriteLatency: units[i].Opts.ReRAMWriteLatency,
			Policy:       rep.Policy,
			MeanIPC:      rep.MeanIPC,
			MinLifetime:  rep.MinLifetime,
		}
	}
	return out, nil
}

// RenderWriteLatencyAblation prints the write-latency sweep.
func RenderWriteLatencyAblation(points []WriteLatencyPoint) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation: ReRAM write latency on WL1 (writes are posted; they cost bank occupancy)")
	fmt.Fprintf(&b, "%12s %9s %10s %13s\n", "write[cyc]", "policy", "mean IPC", "min life[y]")
	for _, p := range points {
		fmt.Fprintf(&b, "%12d %9s %10.3f %13.2f\n", p.WriteLatency, p.Policy, p.MeanIPC, p.MinLifetime)
	}
	return b.String()
}
