package coherence

import (
	"fmt"
	"slices"
	"testing"
)

// refDirectory is the previous map-backed directory kept as a test oracle.
// The open-addressed table must reproduce its results, states, sharer sets
// and stats exactly.
type refDirectory struct {
	lines map[uint64]refLine
	stats Stats
}

type refLine struct {
	sharers uint64
	owner   int
	state   State
}

func (r *refDirectory) readAcquire(addr uint64, core int) (uint64, bool) {
	r.stats.ReadMisses++
	ls, ok := r.lines[addr]
	if !ok {
		r.lines[addr] = refLine{sharers: 1 << uint(core), owner: core, state: Exclusive}
		return 0, false
	}
	var down uint64
	var wb bool
	switch ls.state {
	case Modified:
		wb = true
		r.stats.DirtyWritebacks++
		fallthrough
	case Exclusive:
		if ls.owner != core {
			down = 1 << uint(ls.owner)
			r.stats.Downgrades++
		}
		ls.state = Shared
	}
	ls.sharers |= 1 << uint(core)
	r.lines[addr] = ls
	return down, wb
}

func (r *refDirectory) writeAcquire(addr uint64, core int) (uint64, bool) {
	r.stats.WriteMisses++
	ls, ok := r.lines[addr]
	if !ok {
		r.lines[addr] = refLine{sharers: 1 << uint(core), owner: core, state: Modified}
		return 0, false
	}
	wb := ls.state == Modified && ls.owner != core
	if wb {
		r.stats.DirtyWritebacks++
	}
	inv := ls.sharers &^ (1 << uint(core))
	r.stats.Invalidations += uint64(popcount(inv))
	r.lines[addr] = refLine{sharers: 1 << uint(core), owner: core, state: Modified}
	return inv, wb
}

func (r *refDirectory) release(addr uint64, core int) {
	ls, ok := r.lines[addr]
	if !ok {
		return
	}
	ls.sharers &^= 1 << uint(core)
	if ls.sharers == 0 {
		delete(r.lines, addr)
		return
	}
	if (ls.state == Modified || ls.state == Exclusive) && ls.owner == core {
		ls.state = Shared
	}
	r.lines[addr] = ls
}

func (r *refDirectory) shootdown(addr uint64) (uint64, bool) {
	ls, ok := r.lines[addr]
	if !ok {
		return 0, false
	}
	r.stats.Invalidations += uint64(popcount(ls.sharers))
	r.stats.Shootdowns++
	dirty := ls.state == Modified
	if dirty {
		r.stats.DirtyWritebacks++
	}
	delete(r.lines, addr)
	return ls.sharers, dirty
}

// keysHomedAt returns n distinct line addresses whose home slot is h.
func keysHomedAt(d *Directory, h uint64, n int, from uint64) []uint64 {
	var out []uint64
	for a := from; len(out) < n; a += 0x40 {
		if d.home(a) == h {
			out = append(out, a)
		}
	}
	return out
}

// TestDirectoryMatchesReference drives the table and the map reference
// through the same random acquire/release/shootdown sequences and compares
// every result, then every line's state and sharers and the stats. The key
// pool forces collisions (several lines per home slot) and probe runs that
// wrap from the last slot to the first, so backward-shift deletion crosses
// the wraparound; the population is held at the table's bound.
func TestDirectoryMatchesReference(t *testing.T) {
	for _, tc := range []struct{ cores, maxLines int }{{1, 1}, {4, 8}, {16, 32}, {64, 100}} {
		t.Run(fmt.Sprintf("cores=%d/lines=%d", tc.cores, tc.maxLines), func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				checkDirectoryAgainstReference(t, tc.cores, tc.maxLines, seed)
			}
		})
	}
}

func checkDirectoryAgainstReference(t *testing.T, cores, maxLines int, seed uint64) {
	t.Helper()
	d := MustNewDirectory(cores, maxLines)
	r := &refDirectory{lines: map[uint64]refLine{}}
	last := d.mask
	var pool []uint64
	pool = append(pool, keysHomedAt(d, last, 4, 0x40)...)   // runs that wrap past the end
	pool = append(pool, keysHomedAt(d, last-1, 2, 0x40)...) // and feed into them
	pool = append(pool, keysHomedAt(d, 0, 3, 0x40)...)      // and are displaced at the start
	for i := 0; i < 2*maxLines; i++ {
		pool = append(pool, uint64(i+1)*0x1040)
	}
	slices.Sort(pool)
	pool = slices.Compact(pool)
	x := seed * 0x9E3779B97F4A7C15
	rnd := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	for step := 0; step < 3000; step++ {
		addr := pool[rnd(len(pool))]
		core := rnd(cores)
		op := rnd(4)
		if _, tracked := r.lines[addr]; !tracked && op < 2 && len(r.lines) == maxLines+1 {
			op = 3 // the hierarchy never tracks more: evict a tracked line instead
			for _, a := range pool {
				if _, ok := r.lines[a]; ok {
					addr = a
					break
				}
			}
		}
		switch op {
		case 0:
			got, gwb := d.ReadAcquire(addr, core)
			want, wwb := r.readAcquire(addr, core)
			if got != want || gwb != wwb {
				t.Fatalf("seed %d step %d: ReadAcquire(%#x,%d) = (%b,%v), reference (%b,%v)", seed, step, addr, core, got, gwb, want, wwb)
			}
		case 1:
			got, gwb := d.WriteAcquire(addr, core)
			want, wwb := r.writeAcquire(addr, core)
			if got != want || gwb != wwb {
				t.Fatalf("seed %d step %d: WriteAcquire(%#x,%d) = (%b,%v), reference (%b,%v)", seed, step, addr, core, got, gwb, want, wwb)
			}
		case 2:
			d.Release(addr, core, false)
			r.release(addr, core)
		case 3:
			got, gd := d.Shootdown(addr)
			want, wd := r.shootdown(addr)
			if got != want || gd != wd {
				t.Fatalf("seed %d step %d: Shootdown(%#x) = (%b,%v), reference (%b,%v)", seed, step, addr, got, gd, want, wd)
			}
		}
		if d.TrackedLines() != len(r.lines) {
			t.Fatalf("seed %d step %d: %d tracked lines, reference %d", seed, step, d.TrackedLines(), len(r.lines))
		}
		for _, a := range pool {
			ls := r.lines[a]
			var want []int
			for c := 0; c < cores; c++ {
				if ls.sharers&(1<<uint(c)) != 0 {
					want = append(want, c)
				}
			}
			if d.StateOf(a) != ls.state || !slices.Equal(d.Sharers(a), want) {
				t.Fatalf("seed %d step %d: line %#x is %v %v, reference %v %v", seed, step, a, d.StateOf(a), d.Sharers(a), ls.state, want)
			}
		}
	}
	if d.Stats() != r.stats {
		t.Fatalf("seed %d: stats %+v, reference %+v", seed, d.Stats(), r.stats)
	}
}

// TestDeleteAcrossWraparound pins the backward shift at the table's end: a
// run that starts in the last slot and spills into slots 0 and 1 must stay
// reachable as its members are removed in every order.
func TestDeleteAcrossWraparound(t *testing.T) {
	for _, order := range [][]int{{0, 1, 2}, {1, 0, 2}, {2, 1, 0}, {0, 2, 1}} {
		d := MustNewDirectory(4, 4)
		keys := keysHomedAt(d, d.mask, 2, 0x40)
		keys = append(keys, keysHomedAt(d, 0, 1, 0x40)...)
		for i, a := range keys {
			d.WriteAcquire(a, i)
		}
		if i, _ := d.find(keys[2]); i != 1 {
			t.Fatalf("slot-0 key displaced to slot %d, want 1 (run wraps from slot %d)", i, d.mask)
		}
		for n, k := range order {
			d.Shootdown(keys[k])
			for _, j := range order[n+1:] {
				if st := d.StateOf(keys[j]); st != Modified {
					t.Fatalf("order %v: after removing %#x, line %#x is %v, want M", order, keys[k], keys[j], st)
				}
			}
		}
		if d.TrackedLines() != 0 {
			t.Fatalf("order %v: %d lines left", order, d.TrackedLines())
		}
		for i, s := range d.slots {
			if s != (slot{}) {
				t.Fatalf("order %v: slot %d not scrubbed: %+v", order, i, s)
			}
		}
	}
}

// TestOverflowPanics: one line past the bound the table was sized for can
// only come from a lost release, so the insert panics instead of growing.
func TestOverflowPanics(t *testing.T) {
	d := MustNewDirectory(1, 2)
	d.ReadAcquire(0x40, 0)
	d.ReadAcquire(0x80, 0)
	d.ReadAcquire(0xC0, 0) // the transient line: still allowed
	defer func() {
		if recover() == nil {
			t.Fatal("inserting past the bound did not panic")
		}
	}()
	d.ReadAcquire(0x100, 0)
}

// TestDirectoryDoesNotAllocate pins the acquire/release/shootdown cycle to
// zero heap allocations: the table is sized once and never grows.
func TestDirectoryDoesNotAllocate(t *testing.T) {
	d := MustNewDirectory(16, 1024)
	i := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		a := (i%2048 + 1) << 6
		core := int(i % 16)
		d.ReadAcquire(a, core)
		d.WriteAcquire(a, core)
		d.ReadAcquire(a, (core+1)%16)
		d.Release(a, core, true)
		d.Shootdown(a)
		i++
	}); n != 0 {
		t.Errorf("directory cycle allocates %v times, want 0", n)
	}
}
