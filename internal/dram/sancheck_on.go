//go:build simcheck

package dram

import "repro/internal/sancheck"

// sanCheckBank validates the bank state machine after one Access: the
// scheduler's open-row window never exceeds its configured depth or holds
// a duplicate row (the recency-refresh copies would corrupt both ways),
// and the completion time respects the best-case bound — controller
// overhead plus CAS plus burst; row misses, conflicts and waits only add
// to it. The bank and bus bookings are checked by the timeline sanitizer.
func (m *Memory) sanCheckBank(bk int, now, done uint64) {
	n := int(m.rowLen[bk])
	if n > m.cfg.SchedulerRows {
		sancheck.Failf("dram: bank %d row window holds %d rows, above the scheduler depth %d",
			bk, n, m.cfg.SchedulerRows)
	}
	win := m.rows[bk*m.cfg.SchedulerRows : bk*m.cfg.SchedulerRows+n]
	for i := 0; i < len(win); i++ {
		for j := i + 1; j < len(win); j++ {
			if win[i] == win[j] {
				sancheck.Failf("dram: bank %d row %#x appears twice in the open-row window (recency update corrupted)",
					bk, win[i])
			}
		}
	}
	if min := now + m.cfg.TCtrl + m.cfg.TCAS + m.cfg.TBurst; done < min {
		sancheck.Failf("dram: bank %d access issued at %d completed at %d, before the best-case row-hit latency bound %d",
			bk, now, done, min)
	}
}
