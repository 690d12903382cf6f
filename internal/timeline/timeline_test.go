package timeline

import (
	"math/rand"
	"testing"
)

// reference is the brute-force earliest-gap scheduler the calendar must
// agree with: it keeps every booking ever made and, for each request,
// slides the candidate begin past every booking it overlaps until none does.
type reference struct{ booked []span }

func (r *reference) reserve(start, dur uint64) uint64 {
	begin := start
	for moved := true; moved; {
		moved = false
		for _, b := range r.booked {
			if b.begin < begin+dur && begin < b.end {
				begin = b.end
				moved = true
			}
		}
	}
	r.booked = append(r.booked, span{begin, begin + dur})
	return begin
}

// one is a single resource's calendar: a one-entry Set.
type one struct{ Set }

func newOne() *one { return &one{NewSet(1)} }

func (c *one) Reserve(start, dur uint64) uint64 { return c.Set.Reserve(0, start, dur) }

// held returns how many intervals c holds, ended ones not yet dropped
// included.
func held(c *one) int { return len(c.older[0]) + 1 }

// request is one step of a random arrival sequence: the horizon moves to
// now, then a request of dur cycles arrives at start >= now.
type request struct{ now, start, dur uint64 }

// arrivals draws n requests whose starts land before, inside and after
// the bookings already made, so many arrive out of time order. The
// horizon moves by up to drift cycles a step.
func arrivals(rng *rand.Rand, n, drift int) []request {
	out := make([]request, n)
	var now uint64
	for i := range out {
		if rng.Intn(3) == 0 {
			now += uint64(rng.Intn(drift))
		}
		out[i] = request{now: now, start: now + uint64(rng.Intn(200)), dur: 1 + uint64(rng.Intn(30))}
	}
	return out
}

func TestCalendarMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newOne()
		var ref reference
		var last, ooo uint64
		for i, rq := range arrivals(rng, 400, 40) {
			c.Advance(rq.now)
			got := c.Reserve(rq.start, rq.dur)
			want := ref.reserve(rq.start, rq.dur)
			if got != want {
				t.Fatalf("seed %d request %d (start %d, dur %d, now %d): calendar begins at %d, brute force at %d",
					seed, i, rq.start, rq.dur, rq.now, got, want)
			}
			if rq.start < last {
				ooo++
			}
			last = max(last, want+rq.dur)
		}
		if c.OutOfOrder() != ooo {
			t.Errorf("seed %d: OutOfOrder = %d, want %d", seed, c.OutOfOrder(), ooo)
		}
		if ooo == 0 {
			t.Errorf("seed %d: no out-of-order arrivals; the sequence does not exercise gap filling", seed)
		}
	}
}

// A calendar pruned at every step and one never pruned return identical
// begins: pruning drops only intervals no later request can touch.
func TestPrunedMatchesUnpruned(t *testing.T) {
	//lint:allow nondeterminism fixed seed: the draw only shapes the arrival sequence
	rng := rand.New(rand.NewSource(99))
	pruned, full := newOne(), newOne()
	maxLive := 0
	for i, rq := range arrivals(rng, 5000, 400) {
		pruned.Advance(rq.now)
		a := pruned.Reserve(rq.start, rq.dur)
		b := full.Reserve(rq.start, rq.dur)
		if a != b {
			t.Fatalf("request %d: pruned calendar begins at %d, unpruned at %d", i, a, b)
		}
		maxLive = max(maxLive, held(pruned))
	}
	if pruned.OutOfOrder() != full.OutOfOrder() {
		t.Errorf("out-of-order counts differ: pruned %d, unpruned %d", pruned.OutOfOrder(), full.OutOfOrder())
	}
	if held(full) <= maxLive {
		t.Errorf("unpruned calendar holds %d intervals, pruned peaked at %d: pruning dropped nothing", held(full), maxLive)
	}
}

// An advanced calendar holds about its live intervals however long it
// runs: ended ones are dropped before the array grows, on every path that
// adds an interval.
func TestPruningBoundsMemory(t *testing.T) {
	//lint:allow nondeterminism fixed seed: the draw only shapes the arrival sequence
	rng := rand.New(rand.NewSource(17))
	c := newOne()
	for _, rq := range arrivals(rng, 200_000, 40) {
		c.Advance(rq.now)
		c.Reserve(rq.start, rq.dur)
	}
	if got := cap(c.older[0]); got > 256 {
		t.Errorf("after 200K bookings the calendar's array holds %d intervals; pruning is not bounding it", got)
	}
	// Bookings that all fill gaps before one far-future booking never
	// start a new tail; they must be pruned too.
	d := newOne()
	d.Reserve(1<<40, 10)
	var now uint64
	for i := 0; i < 200_000; i++ {
		now += 8
		d.Advance(now)
		d.Reserve(now+uint64(rng.Intn(4)), 1+uint64(rng.Intn(3)))
	}
	if got := cap(d.older[0]); got > 256 {
		t.Errorf("after 200K gap-filling bookings the calendar's array holds %d intervals", got)
	}
}

func TestReserveGapFilling(t *testing.T) {
	c := newOne()
	if got := c.Reserve(1000, 60); got != 1000 {
		t.Fatalf("first booking begins at %d, want 1000", got)
	}
	// An early request fits in the idle time before the booking.
	if got := c.Reserve(100, 4); got != 100 {
		t.Errorf("early request begins at %d, want 100 (fills the idle gap)", got)
	}
	// One that would overlap the booking waits for it in full.
	if got := c.Reserve(990, 20); got != 1060 {
		t.Errorf("colliding request begins at %d, want 1060", got)
	}
	// A gap too short for the request is skipped, a long enough one used.
	if got := c.Reserve(104, 900); got != 1080 {
		t.Errorf("900-cycle request begins at %d, want 1080 (gap [104,1000) is 896 cycles)", got)
	}
	if c.OutOfOrder() != 3 {
		t.Errorf("OutOfOrder = %d, want 3", c.OutOfOrder())
	}
	// Bookings that touch merge into one interval.
	if got := held(c); got != 2 {
		t.Errorf("live intervals = %d, want 2 ([100,104) and [1000,1980))", got)
	}
}

// A Set's resources never interfere: it schedules exactly like
// one-resource Sets advanced along with it, and its count resets without
// losing bookings.
func TestSetResourcesIndependent(t *testing.T) {
	//lint:allow nondeterminism fixed seed: the draw only shapes the arrival sequence
	rng := rand.New(rand.NewSource(5))
	s := NewSet(4)
	single := []*one{newOne(), newOne(), newOne(), newOne()}
	for i, rq := range arrivals(rng, 3000, 40) {
		r := rng.Intn(4)
		s.Advance(rq.now)
		for _, c := range single {
			c.Advance(rq.now)
		}
		if a, b := s.Reserve(r, rq.start, rq.dur), single[r].Reserve(rq.start, rq.dur); a != b {
			t.Fatalf("request %d on %d: set begins at %d, single calendar at %d", i, r, a, b)
		}
	}
	var want uint64
	for _, c := range single {
		want += c.OutOfOrder()
	}
	if got := s.OutOfOrder(); got != want || got == 0 {
		t.Errorf("set OutOfOrder = %d, want %d (nonzero)", got, want)
	}
	tail := s.tails[0]
	s.ResetCounts()
	if s.OutOfOrder() != 0 || s.tails[0] != tail {
		t.Errorf("ResetCounts: %d out of order, tail %v (want 0, %v)", s.OutOfOrder(), s.tails[0], tail)
	}
}

func TestReserveDoesNotAllocateInSteadyState(t *testing.T) {
	//lint:allow nondeterminism fixed seed: the draw only shapes the arrival sequence
	reqs := arrivals(rand.New(rand.NewSource(3)), 1<<12, 40)
	s := NewSet(1)
	for _, rq := range reqs { // warm the backing array
		s.Advance(rq.now)
		s.Reserve(0, rq.start, rq.dur)
	}
	base := reqs[len(reqs)-1].now + 1000
	allocs := testing.AllocsPerRun(5, func() {
		for _, rq := range reqs {
			s.Advance(base + rq.now)
			s.Reserve(0, base+rq.start, rq.dur)
		}
		base += reqs[len(reqs)-1].now + 1000
	})
	if allocs != 0 {
		t.Errorf("steady-state Reserve allocates %.1f times per pass, want 0", allocs)
	}
}

// benchStream builds a replayable request stream over 16 resources, each
// loaded to about two thirds of its capacity, with oooPct percent of the
// requests drawn to start before their resource's latest booked end (when
// it lies ahead of the horizon). Each pass shifts every cycle by the
// returned span so time keeps moving forward.
func benchStream(oooPct int) (reqs []request, res []int, span uint64) {
	//lint:allow nondeterminism fixed seed: the draw only shapes the benchmark's arrival stream
	rng := rand.New(rand.NewSource(11))
	const n = 1 << 14
	reqs, res = make([]request, n), make([]int, n)
	var now uint64
	last := make([]uint64, 16)
	for i := range reqs {
		now += uint64(rng.Intn(3))
		r := rng.Intn(16)
		dur := 2 + uint64(rng.Intn(12))
		start := max(now, last[r]) + uint64(rng.Intn(8))
		if rng.Intn(100) < oooPct && last[r] > now {
			start = now + uint64(rng.Int63n(int64(last[r]-now)))
		}
		last[r] = max(last[r], start+dur)
		reqs[i], res[i] = request{now: now, start: start, dur: dur}, r
		span = max(span, last[r])
	}
	return reqs, res, span + 1000
}

func benchmarkReserve(b *testing.B, oooPct int) {
	reqs, res, span := benchStream(oooPct)
	s := NewSet(16)
	var base uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & (len(reqs) - 1)
		if k == 0 && i > 0 {
			base += span
		}
		rq := reqs[k]
		s.Advance(base + rq.now)
		s.Reserve(res[k], base+rq.start, rq.dur)
	}
	b.ReportMetric(float64(s.OutOfOrder())/float64(b.N), "ooo/op")
}

// BenchmarkReserve books a 16-resource set with in-order arrivals and with
// the 45% out-of-order mix the simulator's memory walks produce.
func BenchmarkReserve(b *testing.B) {
	b.Run("inorder", func(b *testing.B) { benchmarkReserve(b, 0) })
	b.Run("ooo45", func(b *testing.B) { benchmarkReserve(b, 75) })
}
