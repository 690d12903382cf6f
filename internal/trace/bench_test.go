package trace

import "testing"

// BenchmarkAppGenNext measures the generator's per-instruction cost, the
// trace layer of every simulation: a streaming high-intensity app, a
// pointer-chasing one and a low-intensity one.
func BenchmarkAppGenNext(b *testing.B) {
	for _, app := range []string{"libquantum", "mcf", "povray"} {
		b.Run(app, func(b *testing.B) {
			g, err := NewAppGen(MustProfile(app), 1)
			if err != nil {
				b.Fatal(err)
			}
			var in Instr
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Next(&in)
			}
		})
	}
}
