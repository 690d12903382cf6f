package core

import "testing"

// TestCalendarWriteHeavyRegression is the end-to-end check of the
// reservation calendars on a real workload: reads demonstrably wait behind
// booked ReRAM writes (nonzero read wait cycles, and RAW/WAW op-history
// transitions on resident lines), every resource kind sees out-of-order
// arrivals, and the per-bank service histograms are populated. Slower
// writes hold the banks longer, so reads must wait more.
func TestCalendarWriteHeavyRegression(t *testing.T) {
	wl := StandardWorkloads()[0]
	base := DefaultOptions(SNUCA)
	base.Apps = wl.Apps
	base.InstrPerCore = 60_000
	base.Warmup = 20_000

	rep, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	q := rep.LLC.Queue
	if q.RAW == 0 || q.WAW == 0 {
		t.Errorf("no transitions after writes recorded (RAW=%d WAW=%d)", q.RAW, q.WAW)
	}
	if q.ReadQueued == 0 || q.ReadWaitCycles == 0 {
		t.Errorf("reads never waited (queued=%d, cycles=%d) despite booked writes", q.ReadQueued, q.ReadWaitCycles)
	}
	if q.OutOfOrder == 0 || rep.NoC.OutOfOrder == 0 || rep.DRAM.OutOfOrder == 0 {
		t.Errorf("out-of-order arrivals LLC/NoC/DRAM = %d/%d/%d, want all nonzero",
			q.OutOfOrder, rep.NoC.OutOfOrder, rep.DRAM.OutOfOrder)
	}
	var reads, writes uint64
	for _, b := range rep.BankService {
		reads += b.Read.Total()
		writes += b.Write.Total()
	}
	if reads == 0 || writes == 0 {
		t.Errorf("service histograms empty: %d read, %d write samples", reads, writes)
	}

	slow := base
	slow.ReRAMWriteLatency = 500
	srep, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	if srep.LLC.Queue.ReadWaitCycles <= q.ReadWaitCycles {
		t.Errorf("500-cycle writes left reads waiting %d cycles, no more than the default's %d",
			srep.LLC.Queue.ReadWaitCycles, q.ReadWaitCycles)
	}
}

// TestCalendarDeterministic pins that the calendars preserve the repo's
// determinism contract: two runs of the identical unit are DeepEqual down
// to every histogram bucket.
func TestCalendarDeterministic(t *testing.T) {
	wl := StandardWorkloads()[1]
	o := DefaultOptions(ReNUCA)
	o.Apps = wl.Apps
	o.InstrPerCore = 40_000
	o.Warmup = 15_000
	a, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.BankService) == 0 {
		t.Fatal("no service histograms")
	}
	for bank := range a.BankService {
		if a.BankService[bank] != b.BankService[bank] {
			t.Errorf("bank %d histograms diverge between identical runs", bank)
		}
	}
	if a.LLC != b.LLC || a.NoC != b.NoC || a.DRAM != b.DRAM {
		t.Error("LLC, NoC or DRAM stats diverge between identical runs")
	}
}
