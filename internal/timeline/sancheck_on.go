//go:build simcheck

package timeline

import "repro/internal/sancheck"

// sanCheckReserve validates one booking against the calendar it left
// behind: the intervals are non-empty, sorted, disjoint and never
// touching; the request was for a positive length, started no earlier
// than the pruning horizon now and began no earlier than it started; the
// booking is busy in the calendar; and no free gap between start and
// begin could have held it — the calendar never leaves a resource idle
// through time a waiting request could have used.
func sanCheckReserve(tail span, older []span, now, start, begin, dur uint64) {
	if dur == 0 {
		sancheck.Failf("timeline: zero-length booking at %d", start)
	}
	if start < now {
		sancheck.Failf("timeline: request starts at %d, before the pruning horizon %d", start, now)
	}
	if begin < start {
		sancheck.Failf("timeline: booking begins at %d, before its request started at %d", begin, start)
	}
	end := begin + dur
	held := false
	var prev span
	for i := 0; i <= len(older); i++ {
		iv := tail
		if i < len(older) {
			iv = older[i]
		}
		if iv.end <= iv.begin {
			sancheck.Failf("timeline: empty or inverted interval [%d,%d)", iv.begin, iv.end)
		}
		if i > 0 && prev.end >= iv.begin {
			sancheck.Failf("timeline: intervals [%d,%d) and [%d,%d) overlap, touch or are out of order",
				prev.begin, prev.end, iv.begin, iv.end)
		}
		if iv.begin <= begin && end <= iv.end {
			held = true
		}
		// The free gap before iv is [prev.end, iv.begin), from 0 before
		// the first interval: pruned time lies before any start.
		g0, g1 := prev.end, iv.begin
		if i == 0 {
			g0 = 0
		}
		g0 = max(g0, start)
		if g0 < begin && g1 > g0 && g1-g0 >= dur {
			sancheck.Failf("timeline: booking of %d cycles from %d began at %d, skipping the free gap [%d,%d)",
				dur, start, begin, g0, g1)
		}
		prev = iv
	}
	if !held {
		sancheck.Failf("timeline: booking [%d,%d) is not held by any busy interval", begin, end)
	}
}

// sanCheckAdvance checks that time never runs backwards for a calendar.
func sanCheckAdvance(was, now uint64) {
	if now < was {
		sancheck.Failf("timeline: horizon moved back from %d to %d", was, now)
	}
}
