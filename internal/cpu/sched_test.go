package cpu

import (
	"testing"

	"samielsq/internal/core"
	"samielsq/internal/energy"
	"samielsq/internal/isa"
	"samielsq/internal/lsq"
	"samielsq/internal/trace"
)

// shortDifferentialSet is the reduced matrix for -short (the race CI
// lane): a pointer chaser (the wakeup scheduler's raison d'être), a
// store-dominated mix, the two adversarial personalities, and two
// FP-heavy programs so both issue lanes see contention.
var shortDifferentialSet = []string{
	"mcf", "gzip", "swim", "art", "pointer-chaser", "store-burst",
}

// useLegacyWalk switches c, before its first step, from the wakeup
// scheduler to the legacy O(in-flight) active-list walk, the reference
// implementation the scheduler must reproduce.
func useLegacyWalk(c *CPU) { c.ev = nil }

// TestSchedulerDifferential runs every personality under both issue
// engines — the legacy O(in-flight) active-list walk and the
// event-driven wakeup scheduler — and requires identical per-run
// statistics. The full mode covers all 26 CPU2000 personalities plus
// the adversarial pair; Result equality covers cycles, IPC, every
// stall classification (HeadWaitIssue & co.), flush and forwarding
// counts, so any issue-order or wakeup-timing drift fails loudly.
func TestSchedulerDifferential(t *testing.T) {
	benchmarks := append(append([]string{}, trace.Benchmarks()...), "pointer-chaser", "store-burst")
	insts := uint64(30_000)
	if testing.Short() {
		benchmarks = shortDifferentialSet
		insts = 8_000
	}
	models := map[string]func(m *energy.Meter) lsq.Model{
		"samie":        func(m *energy.Meter) lsq.Model { return core.NewPaper(m) },
		"conventional": func(m *energy.Meter) lsq.Model { return lsq.NewConventional(128, m) },
	}
	for _, bench := range benchmarks {
		for mname, mk := range models {
			if mname == "conventional" && testing.Short() && bench != "mcf" && bench != "store-burst" {
				continue // one model is enough for most of the short matrix
			}
			bench, mname, mk := bench, mname, mk
			t.Run(bench+"/"+mname, func(t *testing.T) {
				t.Parallel()
				p := trace.MustPersonality(bench)
				run := func(legacy bool) (Result, energy.Meter, *FlightRecorder) {
					m := energy.NewMeter()
					c := New(PaperConfig(), trace.NewGenerator(p), mk(m), nil, nil, nil, m)
					if legacy {
						useLegacyWalk(c)
					}
					fr := NewFlightRecorder(16)
					c.SetFlightRecorder(fr)
					return c.Run(insts), *m, fr
				}
				wakeup, wakeupE, wakeupFR := run(false)
				legacy, legacyE, legacyFR := run(true)
				if wakeup != legacy {
					// The flight recorders turn "results differ" into a
					// cycle-level diagnosis: first divergent issue set,
					// plus each engine's last recorded frames.
					if cyc, ok := FirstDivergence(wakeupFR, legacyFR); ok {
						t.Errorf("first divergent issue set at cycle %d", cyc)
					}
					t.Fatalf("wakeup scheduler diverged from the legacy walk:\nwakeup: %+v\nlegacy: %+v\nwakeup tail:\n%slegacy tail:\n%s",
						wakeup, legacy, wakeupFR.Dump(), legacyFR.Dump())
				}
				// Energy is part of the contract: LSQ models charge
				// CAM/entry energy per model call, so the wakeup path
				// must preserve the exact call pattern, not just the
				// architectural outcome.
				if wakeupE != legacyE {
					t.Fatalf("energy accounting diverged:\nwakeup: %+v\nlegacy: %+v", wakeupE, legacyE)
				}
			})
		}
	}
}

// TestWakeupObservesRecycledProducer pins the generation-tag protocol
// of the wakeup path: a consumer's wakeup is enqueued on the timing
// wheel when its producer load performs (at the producer's readyAt),
// but the commit stage runs before the issue stage, so when readyAt
// arrives the producer — sitting at the ROB head — has already
// committed and its dynInst slot recycled (generation bumped) before
// the wakeup drains. producerDone must classify the operand as ready
// via the generation mismatch without reading the recycled slot's
// stale state/readyAt.
func TestWakeupObservesRecycledProducer(t *testing.T) {
	var insts []isa.Inst
	insts = append(insts, load(1, 0x900000)) // cold miss: long readyAt
	insts = append(insts, alu(2, 1))         // consumer of the load
	for i := 0; i < 64; i++ {
		insts = append(insts, alu(int16(3+i%8), isa.RegNone))
	}

	c := mk(insts, nil) // default: wakeup scheduler
	if c.ev == nil {
		t.Fatal("wakeup scheduler not active by default")
	}
	// Step until the load commits. The commit happens at the cycle the
	// load's readyAt expires — the same cycle the consumer's wheel
	// entry fires.
	deadline := 10_000
	for c.res.Committed == 0 {
		c.step()
		if deadline--; deadline < 0 {
			t.Fatal("load never committed")
		}
	}
	if c.res.Committed != 1 {
		t.Fatalf("committed %d this cycle, want exactly the producer load", c.res.Committed)
	}
	if len(c.freeInsts) == 0 {
		t.Fatal("producer was not recycled at commit")
	}
	// The consumer is now the ROB head. Its wakeup drained this same
	// cycle, after the recycle: it must have observed the recycled
	// producer as done and issued.
	head := c.rob.front()
	if head.in.Cls != isa.ClassIntALU {
		t.Fatalf("ROB head is %v, want the consumer ALU", head.in.Cls)
	}
	if head.state < stIssued {
		t.Fatalf("consumer state %d after its producer's recycle-cycle wakeup, want issued", head.state)
	}
	if head.srcA != nil {
		t.Fatal("consumer still holds a reference to the recycled producer")
	}

	// The end-to-end run must match the legacy walk exactly.
	run := func(legacy bool) Result {
		cc := New(PaperConfig(), isa.NewSliceStream(insts), lsq.NewUnbounded(), nil, nil, nil, nil)
		if legacy {
			useLegacyWalk(cc)
		}
		return cc.Run(uint64(len(insts)))
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("recycle scenario diverged:\nwakeup: %+v\nlegacy: %+v", a, b)
	}
}

// TestWheelLapRequeue pins the timing-wheel overflow path: an entry
// whose wake cycle is more than wheelSize cycles ahead must re-queue
// at drain time instead of waking early.
func TestWheelLapRequeue(t *testing.T) {
	c := mk([]isa.Inst{alu(1, isa.RegNone)}, nil)
	c.Run(1)
	d := &dynInst{}
	far := c.cycle + wheelSize + 5
	c.ev.park(d, far)
	for cyc := c.cycle + 1; cyc < far; cyc++ {
		c.ev.drainWheel(cyc)
		if got, ok := c.ev.attn.nextSet(0, c.ev.attn.mask+1); ok {
			t.Fatalf("lapped wheel entry woke early at cycle %d (bit %d)", cyc, got)
		}
	}
	c.ev.drainWheel(far)
	if _, ok := c.ev.attn.nextSet(0, c.ev.attn.mask+1); !ok {
		t.Fatal("wheel entry never fired at its wake cycle")
	}
}

// TestSeqBitmapWindow exercises the bitmap over a wrapping seq window.
func TestSeqBitmapWindow(t *testing.T) {
	b := newSeqBitmap(256)
	base := uint64(1<<40) - 3 // straddles the mask boundary
	b.set(base + 1)
	b.set(base + 200)
	if s, ok := b.nextSet(base, base+256); !ok || s != base+1 {
		t.Fatalf("nextSet = %d,%v want %d", s, ok, base+1)
	}
	if s, ok := b.nextSet(base+2, base+256); !ok || s != base+200 {
		t.Fatalf("nextSet = %d,%v want %d", s, ok, base+200)
	}
	b.clear(base + 200)
	if _, ok := b.nextSet(base+2, base+256); ok {
		t.Fatal("cleared bit still found")
	}
	if _, ok := b.nextSet(base+2, base+100); ok {
		t.Fatal("nextSet ignored its end bound")
	}
}
