package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/sim"
)

// digest hashes every field of a simulation's Result. A change that only
// makes the simulator faster must leave it unchanged; two runs of one seed
// within a benchmark run must produce the same one. encoding/json writes
// floats in their shortest round-trip form, so equal digests mean equal
// bits, and it rejects NaN and Inf, which no Result field may hold.
func digest(r sim.Result) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("result does not encode: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// checkResult tests accounting identities that hold under any timing model:
// they follow from how a memory walk counts its steps, not from when the
// steps happen, so a timing-model change keeps them and a bookkeeping bug
// breaks them.
func checkResult(r sim.Result, cores int) error {
	if len(r.IPC) != cores || len(r.PerCore) != cores {
		return fmt.Errorf("%d IPC and %d per-core entries for %d cores", len(r.IPC), len(r.PerCore), cores)
	}
	for i, ipc := range r.IPC {
		// Every core must have reached its measurement target.
		if !(ipc > 0) || math.IsInf(ipc, 0) {
			return fmt.Errorf("core %d IPC %v: core never armed", i, ipc)
		}
	}
	// Every LLC write is a fill or a write-back hit, and each one wears
	// exactly one ReRAM frame.
	if w := r.LLC.Fills + r.LLC.WritebackHits; w != r.Energy.LLCWrites {
		return fmt.Errorf("LLC fills %d + write-back hits %d != wear writes %d",
			r.LLC.Fills, r.LLC.WritebackHits, r.Energy.LLCWrites)
	}
	var llcHits, llcMisses uint64
	for i, c := range r.PerCore {
		// An L2 miss goes to the LLC and ends there as a hit or a miss.
		if c.L2Misses != c.LLCHits+c.LLCMisses {
			return fmt.Errorf("core %d: L2 misses %d != LLC hits %d + misses %d", i, c.L2Misses, c.LLCHits, c.LLCMisses)
		}
		if c.L1Misses < c.L2Misses || c.Loads+c.Stores < c.L1Misses {
			return fmt.Errorf("core %d: accesses %d, L1 misses %d, L2 misses %d are not nested",
				i, c.Loads+c.Stores, c.L1Misses, c.L2Misses)
		}
		llcHits += c.LLCHits
		llcMisses += c.LLCMisses
	}
	// The LLC sees every core's demand reads, and every demand miss reads
	// DRAM once and fills the LLC once.
	if llcHits != r.LLC.ReadHits || llcMisses != r.LLC.ReadMisses {
		return fmt.Errorf("cores' LLC hits/misses %d/%d != LLC read hits/misses %d/%d",
			llcHits, llcMisses, r.LLC.ReadHits, r.LLC.ReadMisses)
	}
	if r.Energy.DRAMReads != llcMisses {
		return fmt.Errorf("DRAM reads %d != LLC misses %d", r.Energy.DRAMReads, llcMisses)
	}
	if r.LLC.Fills != llcMisses+r.LLC.WritebackFills {
		return fmt.Errorf("LLC fills %d != demand misses %d + write-back fills %d",
			r.LLC.Fills, llcMisses, r.LLC.WritebackFills)
	}
	if r.MeasuredCycles < 2 || len(r.BankLifetimes) == 0 {
		return fmt.Errorf("degenerate window: %d cycles, %d banks", r.MeasuredCycles, len(r.BankLifetimes))
	}
	return nil
}
