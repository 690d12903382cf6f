// Package timeline books contended simulator resources — LLC bank data
// arrays, NoC links, DRAM banks and channel buses — at future cycles.
//
// The simulator resolves each memory walk synchronously (see DESIGN.md), so
// a walk books every resource on its path at the cycle it will really use
// it, and walks issued in core order reach a resource out of time order: a
// request can arrive after another one already booked the resource further
// in the future. Each resource's calendar holds its busy intervals, sorted
// and disjoint, and gives every request the earliest free gap at or after
// its start that is long enough to hold it. An early request therefore fills
// idle time before a later booking instead of queueing behind it, and a
// request that collides with a booking waits for it in full, however far
// ahead the booking lies.
//
// Pruning is exact: Advance(now) declares that no request will start before
// now, and an interval that ends at or before now can never delay such a
// request, so it is dropped. A calendar that is never advanced returns the
// same begin cycles, only with more intervals to search.
package timeline

// span is one busy interval [begin, end).
type span struct{ begin, end uint64 }

// A resource's busy intervals are its older ones followed by its tail,
// sorted by begin, disjoint and never touching (touching bookings merge).
// The tail is the latest interval; its end is the latest booked end, which
// survives pruning. An in-order booking, and one that collides with the
// tail and so queues behind it, touch only the tail. Older intervals that
// ended by the horizon are dropped when their array is full.

// book is the calendar: it books dur cycles in the earliest gap at or
// after start and returns the gap's begin, and whether the request started
// before the latest booked end.
//
//lint:hotpath
func book(tail *span, older *[]span, now, start, dur uint64) (begin uint64, late bool) {
	switch {
	case start > tail.end:
		// In order, after a gap: the booking becomes the new tail, and
		// the old one joins older unless it has already ended.
		if tail.end > now {
			push(older, now, *tail)
		}
		*tail = span{start, start + dur}
		return start, false
	case start == tail.end:
		tail.end += dur // in order, touching the tail
		return start, false
	case start >= tail.begin:
		// Collides with the tail: queues behind it.
		begin = tail.end
		tail.end += dur
		return begin, true
	}
	return fill(tail, older, now, start, dur), true
}

// room returns the older intervals with space for one more, dropping
// the ones that ended by now if the array is full: it grows only when
// every interval it holds is live.
//
//lint:hotpath
func room(older *[]span, now uint64) []span {
	o := *older
	if len(o) == cap(o) {
		dead := 0
		for dead < len(o) && o[dead].end <= now {
			dead++
		}
		o = o[:copy(o, o[dead:])]
		*older = o
	}
	return o
}

// push appends s after every older interval.
//
//lint:hotpath
func push(older *[]span, now uint64, s span) {
	//lint:allow allocfree the array grows only to the peak live interval count and is then reused
	*older = append(room(older, now), s)
}

// fill books a request that starts before the tail.
//
//lint:hotpath
func fill(tail *span, older *[]span, now, start, dur uint64) uint64 {
	o := room(older, now)
	n := len(o)
	// Walk the gaps latest first; the last one found that holds the
	// request is the earliest. The gap after the tail always does. Gap i
	// is the one before o[i], gap n the one before the tail.
	i, begin := n+1, tail.end
	from := start
	if n > 0 && o[n-1].end > from {
		from = o[n-1].end
	}
	if tail.begin >= from+dur {
		i, begin = n, from
	}
	for j := n - 1; j >= 0 && o[j].end > start; j-- {
		from := start
		if j > 0 && o[j-1].end > from {
			from = o[j-1].end
		}
		if o[j].begin >= from+dur {
			i, begin = j, from
		}
	}
	end := begin + dur
	switch {
	case i > n: // after the tail
		tail.end = end
	case i == n: // before the tail
		joinPrev := n > 0 && o[n-1].end == begin
		switch {
		case end == tail.begin && joinPrev:
			tail.begin = o[n-1].begin
			*older = o[:n-1]
		case end == tail.begin:
			tail.begin = begin
		case joinPrev:
			o[n-1].end = end
		default:
			//lint:allow allocfree room made space: the array grows only when every interval is live
			*older = append(o, span{begin, end})
		}
	default: // before o[i]; only a few intervals follow it
		joinPrev := i > 0 && o[i-1].end == begin
		joinNext := o[i].begin == end
		switch {
		case joinPrev && joinNext:
			o[i-1].end = o[i].end
			for k := i + 1; k < n; k++ {
				o[k-1] = o[k]
			}
			*older = o[:n-1]
		case joinPrev:
			o[i-1].end = end
		case joinNext:
			o[i].begin = begin
		default:
			//lint:allow allocfree the array grows only to the peak live interval count and is then reused
			o = append(o, span{})
			for k := n; k > i; k-- {
				o[k] = o[k-1]
			}
			o[i] = span{begin, end}
			*older = o
		}
	}
	return begin
}

// Set is the calendars of one resource kind — the banks of an LLC, the
// links of a mesh — sharing one pruning horizon and one out-of-order
// count. The tails sit in one dense array, so the bookings that touch
// only a tail stay within it. Not safe for concurrent use.
type Set struct {
	tails      []span
	older      [][]span
	now        uint64
	outOfOrder uint64
}

// NewSet returns n empty calendars.
func NewSet(n int) Set { return Set{tails: make([]span, n), older: make([][]span, n)} }

// Reserve books dur cycles on resource r in its earliest free gap at or
// after start and returns the cycle the booking begins. dur must be
// positive.
//
//lint:hotpath
func (s *Set) Reserve(r int, start, dur uint64) uint64 {
	begin, late := book(&s.tails[r], &s.older[r], s.now, start, dur)
	if late {
		s.outOfOrder++
	}
	sanCheckReserve(s.tails[r], s.older[r], s.now, start, begin, dur)
	return begin
}

// Advance declares that no request will start before now. The horizon
// never moves backwards.
func (s *Set) Advance(now uint64) {
	sanCheckAdvance(s.now, now)
	s.now = now
}

// OutOfOrder counts the requests, over every calendar, that started
// before their resource's latest booked end.
func (s *Set) OutOfOrder() uint64 { return s.outOfOrder }

// ResetCounts zeroes the out-of-order count (the warmup boundary); the
// bookings themselves survive, as the resources stay busy across it.
func (s *Set) ResetCounts() { s.outOfOrder = 0 }
