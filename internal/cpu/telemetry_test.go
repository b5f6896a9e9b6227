package cpu

import (
	"strings"
	"testing"

	"samielsq/internal/core"
	"samielsq/internal/energy"
	"samielsq/internal/lsq"
	"samielsq/internal/obs"
	"samielsq/internal/trace"
)

// TestSamplerCollectsFromPipeline: an enabled sampler attached to a
// running CPU collects monotone interval samples with live occupancy
// and energy deltas.
func TestSamplerCollectsFromPipeline(t *testing.T) {
	p := trace.MustPersonality("gzip")
	m := energy.NewMeter()
	c := New(PaperConfig(), trace.NewGenerator(p), core.NewPaper(m), nil, nil, nil, m)
	s := obs.NewIntervalSampler(256, 64)
	s.SetEnabled(true)
	c.SetSampler(s)
	c.Run(50_000)

	tl := s.Snapshot()
	if tl == nil || len(tl.Samples) == 0 {
		t.Fatal("no samples collected from a live pipeline")
	}
	if tl.Stride < 256 {
		t.Fatalf("stride = %d, want >= the configured 256", tl.Stride)
	}
	var sawROB, sawLSQ, sawEnergy bool
	last := uint64(0)
	for _, ts := range tl.Samples {
		if ts.Cycle <= last {
			t.Fatalf("sample cycles not increasing: %d after %d", ts.Cycle, last)
		}
		last = ts.Cycle
		if ts.IPC < 0 || ts.ROB < 0 || ts.LSQ < 0 {
			t.Fatalf("negative sample fields: %+v", ts)
		}
		sawROB = sawROB || ts.ROB > 0
		sawLSQ = sawLSQ || ts.LSQ > 0
		sawEnergy = sawEnergy || ts.DcachePJ > 0 || ts.SharedPJ > 0 || ts.DistribPJ > 0
	}
	if !sawROB || !sawLSQ {
		t.Fatalf("occupancies never nonzero (rob=%v lsq=%v) over %d samples", sawROB, sawLSQ, len(tl.Samples))
	}
	if !sawEnergy {
		t.Fatal("energy deltas never nonzero with a live meter")
	}
	// The scheduler stats come from the wakeup engine's structures.
	if c.ev == nil {
		t.Fatal("wakeup scheduler expected by default")
	}
}

// TestRunWarmTimedResetsSampler: the warmup portion must not leak into
// the measured timeline — every retained sample is post-warmup.
func TestRunWarmTimedResetsSampler(t *testing.T) {
	p := trace.MustPersonality("gzip")
	c := New(PaperConfig(), trace.NewGenerator(p), lsq.NewUnbounded(), nil, nil, nil, nil)
	s := obs.NewIntervalSampler(128, 32)
	s.SetEnabled(true)
	c.SetSampler(s)
	res, _, _ := c.RunWarmTimed(5_000, 10_000)

	// The global cycle counter keeps running across the warmup reset, so
	// the measured window is the last res.Cycles cycles.
	warmupEnd := c.cycle - res.Cycles
	tl := s.Snapshot()
	if tl == nil || len(tl.Samples) == 0 {
		t.Fatal("no measured samples")
	}
	for _, ts := range tl.Samples {
		if ts.Cycle <= warmupEnd {
			t.Fatalf("sample at cycle %d predates the warmup boundary %d", ts.Cycle, warmupEnd)
		}
	}
}

// TestStepZeroAllocWithTelemetryDisabled extends the hot-path guard to
// the telemetry hook: with a sampler attached but disabled (and no
// flight recorder), the per-cycle path must still not allocate.
func TestStepZeroAllocWithTelemetryDisabled(t *testing.T) {
	p := trace.MustPersonality("gzip")
	c := New(PaperConfig(), trace.NewGenerator(p), core.NewPaper(nil), nil, nil, nil, nil)
	s := obs.NewIntervalSampler(0, 0) // attached, never enabled
	c.SetSampler(s)
	c.Run(20000)
	n := testing.AllocsPerRun(5, func() {
		for i := 0; i < 2000; i++ {
			c.step()
		}
	})
	if n > 0 {
		t.Errorf("%.1f allocs per 2000 cycles with a disabled sampler attached, want 0", n)
	}
}

func TestFlightRecorderFingerprintAndRing(t *testing.T) {
	feed := func(f *FlightRecorder, mutate bool) {
		for cyc := uint64(1); cyc <= 10; cyc++ {
			f.noteIssue(cyc * 3)
			if cyc == 7 && mutate {
				f.noteIssue(999) // the seeded mutation
			}
			f.noteIssue(cyc*3 + 1)
			f.endCycle(cyc, int(cyc), 0, 0, 0)
		}
	}
	a, b := NewFlightRecorder(4), NewFlightRecorder(4)
	feed(a, false)
	feed(b, false)
	if cyc, ok := FirstDivergence(a, b); ok {
		t.Fatalf("identical recordings reported divergence at %d", cyc)
	}
	if a.Cycles() != 10 {
		t.Fatalf("fingerprinted %d cycles, want 10", a.Cycles())
	}
	// The ring keeps only the last 4 full frames, oldest first.
	frames := a.Frames()
	if len(frames) != 4 || frames[0].Cycle != 7 || frames[3].Cycle != 10 {
		t.Fatalf("frames = %+v, want cycles 7..10", frames)
	}
	if got := frames[3].Issued; len(got) != 2 || got[0] != 30 {
		t.Fatalf("frame issue set = %v", got)
	}

	c := NewFlightRecorder(4)
	feed(c, true)
	cyc, ok := FirstDivergence(a, c)
	if !ok || cyc != 7 {
		t.Fatalf("FirstDivergence = %d,%v want cycle 7", cyc, ok)
	}
	// A shorter recording diverges at its end.
	d := NewFlightRecorder(4)
	d.noteIssue(3)
	d.noteIssue(4)
	d.endCycle(1, 1, 0, 0, 0)
	if cyc, ok := FirstDivergence(a, d); !ok || cyc != 2 {
		t.Fatalf("length-mismatch divergence = %d,%v want cycle 2", cyc, ok)
	}

	dump := a.Dump()
	if !strings.Contains(dump, "cycle") || !strings.Contains(dump, "issued=[30 31]") {
		t.Fatalf("dump unreadable:\n%s", dump)
	}
	if NewFlightRecorder(4).Dump() != "(no frames recorded)" {
		t.Fatal("empty dump placeholder missing")
	}
}

func TestFlightRecorderLimitCycles(t *testing.T) {
	f := NewFlightRecorder(8)
	f.LimitCycles(3)
	for cyc := uint64(1); cyc <= 10; cyc++ {
		f.noteIssue(cyc)
		f.endCycle(cyc, 0, 0, 0, 0)
	}
	if f.Cycles() != 3 {
		t.Fatalf("recorded %d cycles past the limit, want 3", f.Cycles())
	}
	frames := f.Frames()
	if len(frames) != 3 || frames[2].Cycle != 3 {
		t.Fatalf("frames past the limit: %+v", frames)
	}
}

// TestForcedDivergenceNamesFirstCycle attaches flight recorders to two
// genuinely different runs — the SAMIE LSQ versus the conventional
// LSQ, which issue memory operations on different cycles — and
// requires the recorder pair to name a first divergent cycle and
// produce a usable dump. This is the failure-path drill for the
// scheduler-differential and golden suites: when those ever diverge,
// this is the diagnosis they print.
func TestForcedDivergenceNamesFirstCycle(t *testing.T) {
	p := trace.MustPersonality("mcf")
	run := func(model lsq.Model, legacy bool) *FlightRecorder {
		c := New(PaperConfig(), trace.NewGenerator(p), model, nil, nil, nil, nil)
		if legacy {
			useLegacyWalk(c)
		}
		fr := NewFlightRecorder(8)
		c.SetFlightRecorder(fr)
		c.Run(5_000)
		return fr
	}
	a := run(core.NewPaper(nil), false)
	b := run(lsq.NewConventional(8, nil), true) // tiny LSQ: stalls differently, and on the legacy walk
	cyc, ok := FirstDivergence(a, b)
	if !ok {
		t.Fatal("different LSQ models never diverged in issue order")
	}
	if cyc == 0 || cyc > uint64(a.Cycles())+1 {
		t.Fatalf("divergence cycle %d out of recorded range (%d cycles)", cyc, a.Cycles())
	}
	if dump := b.Dump(); dump == "(no frames recorded)" {
		t.Fatal("divergent run retained no frames to dump")
	}
	t.Logf("first divergent issue set at cycle %d", cyc)
}
