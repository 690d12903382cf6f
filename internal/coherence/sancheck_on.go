//go:build simcheck

package coherence

import "repro/internal/sancheck"

// mesiLegal[prev][cur] is the transition matrix this directory can legally
// produce, derived from the protocol methods: I->S is illegal (the first
// reader always takes E), and S->E / M->E are illegal (nothing short of
// full invalidation re-establishes exclusivity). Self-transitions are legal
// no-ops, and I->I covers releases and shootdowns of untracked lines.
var mesiLegal = [4][4]bool{
	Invalid:   {Invalid: true, Shared: false, Exclusive: true, Modified: true},
	Shared:    {Invalid: true, Shared: true, Exclusive: false, Modified: true},
	Exclusive: {Invalid: true, Shared: true, Exclusive: true, Modified: true},
	Modified:  {Invalid: true, Shared: true, Exclusive: false, Modified: true},
}

// sanSweepInterval is how many directory operations pass between full
// table sweeps; per-operation checks stay O(probe run).
const sanSweepInterval = 4096

// sanState paces the full-table sweep.
type sanState struct {
	events uint64
}

// sanCheckLine validates one line and the table around it: the line
// address fits below the state bits, the tracked population is within the
// bound the table was sized for, and a tracked line has no sharer outside
// the configured core count, a legal state, and in E/M exactly one sharer
// (the owner). Methods call it on entry (catching corruption left by
// earlier callers) and again through sanCheckTransition on exit.
func (d *Directory) sanCheckLine(addr uint64) {
	if addr&^addrMask != 0 {
		sancheck.Failf("coherence: line %#x does not fit below the state bits; the address is outside the simulated space", addr)
	}
	if d.count > d.limit {
		sancheck.Failf("coherence: %d tracked lines exceed the bound of %d the %d-slot table was sized for",
			d.count, d.limit, len(d.slots))
	}
	d.san.events++
	if d.san.events%sanSweepInterval == 0 {
		d.sanSweep()
	}
	i, ok := d.find(addr)
	if !ok {
		return
	}
	d.sanCheckSlot(i)
}

// sanCheckSlot validates the sharer mask and state of the tracked line in
// slot i.
func (d *Directory) sanCheckSlot(i uint64) {
	s := d.slots[i]
	addr, st := s.addr(), s.state()
	if limit := uint64(1)<<uint(d.numCores) - 1; s.sharers&^limit != 0 {
		sancheck.Failf("coherence: line %#x has sharers outside the %d-core system: %s",
			addr, d.numCores, sancheck.Cores(s.sharers))
	}
	switch st {
	case Exclusive, Modified:
		if s.sharers&(s.sharers-1) != 0 {
			sancheck.Failf("coherence: line %#x in state %s must have exactly one sharer, its owner, got %s",
				addr, st, sancheck.Cores(s.sharers))
		}
	case Shared:
	default:
		sancheck.Failf("coherence: line %#x tracked with invalid state %s", addr, st)
	}
}

// sanSweep cross-checks the whole table: the occupied-slot count equals
// the tracked count, every line is reachable from its home slot (no probe
// run is cut by an empty slot), and no line is stored twice.
func (d *Directory) sanSweep() {
	n := 0
	for i := range d.slots {
		if d.slots[i].sharers == 0 {
			if d.slots[i].key != 0 {
				sancheck.Failf("coherence: empty slot %d carries stale key %#x (slot not scrubbed)", i, d.slots[i].key)
			}
			continue
		}
		n++
		if j, ok := d.find(d.slots[i].addr()); !ok || j != uint64(i) {
			sancheck.Failf("coherence: line %#x in slot %d is not the one its probe run reaches (found=%v at %d)",
				d.slots[i].addr(), i, ok, j)
		}
		d.sanCheckSlot(uint64(i))
	}
	if n != d.count {
		sancheck.Failf("coherence: %d occupied slots but %d tracked lines", n, d.count)
	}
}

// sanCheckTransition validates the MESI transition a method just performed
// (prev was captured at entry; the current state is re-read here) and
// re-validates the line's bitmask consistency.
func (d *Directory) sanCheckTransition(addr uint64, prev State) {
	cur := d.StateOf(addr)
	if prev > Modified || cur > Modified {
		sancheck.Failf("coherence: line %#x transition involves invalid state (%d -> %d)", addr, uint8(prev), uint8(cur))
	}
	if !mesiLegal[prev][cur] {
		sancheck.Failf("coherence: illegal MESI transition %s -> %s for line %#x", prev, cur, addr)
	}
	d.sanCheckLine(addr)
}
