package experiments

import (
	"testing"

	"samielsq/internal/cpu"
)

// metamorphicShortSet is the -short subset: a pointer chaser, two
// integer mixes, two FP-heavy programs and the adversarial pair.
var metamorphicShortSet = []string{
	"mcf", "gzip", "swim", "art", "pointer-chaser", "store-burst",
}

// TestMetamorphicLSQRelations checks two relations that the LSQ
// models' semantics imply on one trace, so it needs no second engine
// and no recorded output:
//   - the unbounded LSQ never takes more cycles than a bounded one
//     (SAMIE paper configuration, conventional 128, ARB 64×2 with 128
//     in flight), since it refuses nothing a bounded queue accepts;
//   - a conventional LSQ with at least ROBSize entries can never fill
//     before the ROB does, so its run is the unbounded run exactly.
func TestMetamorphicLSQRelations(t *testing.T) {
	benchmarks := append(append([]string{}, Benchmarks()...), "pointer-chaser", "store-burst")
	if testing.Short() {
		benchmarks = metamorphicShortSet
	}
	const insts = 10_000
	robSize := cpu.PaperConfig().ROBSize
	for _, bench := range benchmarks {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			unbounded := Run(RunSpec{Benchmark: bench, Insts: insts, Model: ModelUnbounded}).CPU
			bounded := []struct {
				name string
				spec RunSpec
			}{
				{"samie", RunSpec{Benchmark: bench, Insts: insts, Model: ModelSAMIE}},
				{"conventional-128", RunSpec{Benchmark: bench, Insts: insts, Model: ModelConventional, ConvEntries: 128}},
				{"arb-64x2/128", RunSpec{Benchmark: bench, Insts: insts, Model: ModelARB, ARBBanks: 64, ARBAddrs: 2, ARBInflight: 128}},
			}
			for _, b := range bounded {
				if got := Run(b.spec).CPU.Cycles; got < unbounded.Cycles {
					t.Errorf("%s took %d cycles, fewer than the unbounded LSQ's %d", b.name, got, unbounded.Cycles)
				}
			}
			robSized := Run(RunSpec{Benchmark: bench, Insts: insts, Model: ModelConventional, ConvEntries: robSize}).CPU
			if robSized != unbounded {
				t.Errorf("conventional-%d differs from unbounded:\nconventional: %+v\nunbounded:    %+v", robSize, robSized, unbounded)
			}
		})
	}
}
