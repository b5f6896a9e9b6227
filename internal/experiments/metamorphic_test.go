package experiments

import (
	"math"
	"reflect"
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
//
// Every run it makes also passes checkMeterAndResultRelations.
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
			run := func(name string, spec RunSpec) cpu.Result {
				r := Run(spec)
				checkMeterAndResultRelations(t, name, r)
				return r.CPU
			}
			unbounded := run("unbounded", RunSpec{Benchmark: bench, Insts: insts, Model: ModelUnbounded})
			bounded := []struct {
				name string
				spec RunSpec
			}{
				{"samie", RunSpec{Benchmark: bench, Insts: insts, Model: ModelSAMIE}},
				{"conventional-128", RunSpec{Benchmark: bench, Insts: insts, Model: ModelConventional, ConvEntries: 128}},
				{"arb-64x2/128", RunSpec{Benchmark: bench, Insts: insts, Model: ModelARB, ARBBanks: 64, ARBAddrs: 2, ARBInflight: 128}},
			}
			for _, b := range bounded {
				if got := run(b.name, b.spec).Cycles; got < unbounded.Cycles {
					t.Errorf("%s took %d cycles, fewer than the unbounded LSQ's %d", b.name, got, unbounded.Cycles)
				}
			}
			robSized := run("conventional-rob", RunSpec{Benchmark: bench, Insts: insts, Model: ModelConventional, ConvEntries: robSize})
			if robSized != unbounded {
				t.Errorf("conventional-%d differs from unbounded:\nconventional: %+v\nunbounded:    %+v", robSize, robSized, unbounded)
			}
		})
	}
}

// checkMeterAndResultRelations checks relations every run must satisfy
// whatever its model:
//   - every energy.Meter float field is finite and non-negative;
//   - a model charges only its own structures: non-SAMIE runs have no
//     SAMIE energy or area, non-conventional runs no conventional-LSQ
//     energy or area;
//   - the head-of-ROB stall classes partition a subset of the cycles,
//     and the fetch stall classes partition the fetch stalls;
//   - event counts are bounded by the counts they refine.
func checkMeterAndResultRelations(t *testing.T, name string, r RunResult) {
	t.Helper()
	m := reflect.ValueOf(r.Meter).Elem()
	for i := 0; i < m.NumField(); i++ {
		if f := m.Field(i); f.Kind() == reflect.Float64 {
			if v := f.Float(); math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Errorf("%s: Meter.%s = %v, want finite and >= 0", name, m.Type().Field(i).Name, v)
			}
		}
	}
	if r.Spec.Model != ModelSAMIE && (r.Meter.SAMIETotal() != 0 || r.Meter.SAMIEArea() != 0) {
		t.Errorf("%s: non-SAMIE run charged SAMIE energy %v, area %v", name, r.Meter.SAMIETotal(), r.Meter.SAMIEArea())
	}
	if r.Spec.Model != ModelConventional && (r.Meter.ConvLSQ != 0 || r.Meter.ConvArea != 0) {
		t.Errorf("%s: non-conventional run charged conventional energy %v, area %v", name, r.Meter.ConvLSQ, r.Meter.ConvArea)
	}
	c := r.CPU
	if head := c.HeadWaitIssue + c.HeadWaitExec + c.HeadLoadReadyBit + c.HeadLoadNoPort +
		c.HeadLoadData + c.HeadStoreWait + c.HeadUnplaced; head > c.Cycles {
		t.Errorf("%s: head stall classes sum to %d, more than %d cycles", name, head, c.Cycles)
	}
	if c.FetchStallBranch+c.FetchStallOther != c.FetchStallCycles {
		t.Errorf("%s: fetch stalls branch %d + other %d != %d", name, c.FetchStallBranch, c.FetchStallOther, c.FetchStallCycles)
	}
	if c.ForwardedLoads > c.Loads {
		t.Errorf("%s: %d forwarded loads > %d loads", name, c.ForwardedLoads, c.Loads)
	}
	if c.BranchMispredicts > c.BranchLookups {
		t.Errorf("%s: %d mispredicts > %d branch lookups", name, c.BranchMispredicts, c.BranchLookups)
	}
	if c.PlacementFailures > c.DeadlockFlushes {
		t.Errorf("%s: %d placement failures > %d deadlock flushes", name, c.PlacementFailures, c.DeadlockFlushes)
	}
}
