package predictor

import "testing"

// cptStream is a deterministic load-PC stream over a static footprint of
// 8192 PCs (twice the default table, so conflicts and re-inserts occur)
// with a per-PC blocking rate, as the core feeds the CPT.
func cptStream() (pcs []uint64, blocked []bool) {
	const n = 1 << 14
	pcs = make([]uint64, n)
	blocked = make([]bool, n)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range pcs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		pc := 0x400000 + (x%8192)*4
		pcs[i] = pc
		blocked[i] = (x>>32)%100 < pc%16 // 0-15% block rate by PC
	}
	return pcs, blocked
}

// warmCPT returns a default-sized CPT trained on the stream, as after a
// simulation's warmup.
func warmCPT(pcs []uint64, blocked []bool) *CPT {
	c := MustNew(DefaultConfig())
	for i := range pcs {
		c.OnLoadIssue(pcs[i])
		c.OnLoadCommit(pcs[i], c.Predict(pcs[i]), blocked[i])
	}
	return c
}

// BenchmarkCPTPredict measures the predictor's per-load issue-time call.
func BenchmarkCPTPredict(b *testing.B) {
	pcs, blocked := cptStream()
	c := warmCPT(pcs, blocked)
	mask := len(pcs) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Predict(pcs[i&mask])
	}
}

// BenchmarkCPTOnLoadCommit measures the per-load commit-time call:
// accounting, and on a tag mismatch a conflict insert.
func BenchmarkCPTOnLoadCommit(b *testing.B) {
	pcs, blocked := cptStream()
	c := warmCPT(pcs, blocked)
	mask := len(pcs) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & mask
		c.OnLoadCommit(pcs[j], blocked[j], blocked[j])
	}
}
