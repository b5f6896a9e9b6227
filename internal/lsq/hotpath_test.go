package lsq

import (
	"testing"
)

// trackerChurn drives one add/address/place/forward/commit wave of n
// memory instructions through the tracker, like the CPU does.
func trackerChurn(t *Tracker, startSeq uint64, n int) {
	for i := 0; i < n; i++ {
		seq := startSeq + uint64(i)
		op := t.Add(seq, i%3 != 0) // every third op a store
		t.SetPlaced(op)
		t.SetAddress(op, 0x1000+uint64(i%64)*8, 8)
	}
	for i := 0; i < n; i++ {
		seq := startSeq + uint64(i)
		if op := t.Get(seq); op.IsLoad {
			t.ForwardingSource(seq)
			t.CountOlderKnownStores(seq)
		} else {
			t.CountYoungerKnownLoads(seq)
		}
	}
	for i := 0; i < n; i++ {
		t.Remove(startSeq + uint64(i))
	}
}

// TestTrackerZeroAllocSteadyState guards the tracker's hot paths: once
// the ring and free list have grown to the working-set size, the
// add/lookup/count/forward/remove cycle must not allocate.
func TestTrackerZeroAllocSteadyState(t *testing.T) {
	tr := NewTracker()
	seq := uint64(0)
	trackerChurn(tr, seq, 128) // grow ring, free list, fenwicks
	seq += 128
	if n := testing.AllocsPerRun(10, func() {
		trackerChurn(tr, seq, 128)
		seq += 128
	}); n > 0 {
		t.Errorf("tracker churn allocates %.1f per wave, want 0", n)
	}
}

// TestForwardingMemoInvalidation exercises the delta-repair path: a
// memoized "no source" answer must pick up stores that become
// candidates later, and a memoized source must expire when it retires.
func TestForwardingMemoInvalidation(t *testing.T) {
	tr := NewTracker()
	st := tr.Add(1, false)
	ld := tr.Add(2, true)
	tr.SetAddress(ld, 0x100, 8)
	tr.SetPlaced(ld)
	if _, ok := tr.ForwardingSource(2); ok {
		t.Fatal("no-store window forwarded")
	}
	// The older store's address arrives later and overlaps: the load's
	// memo must be repaired.
	tr.SetAddress(st, 0x100, 8)
	tr.SetPlaced(st)
	if src, ok := tr.ForwardingSource(2); !ok || src != 1 {
		t.Fatalf("memo missed late candidate: %d %v", src, ok)
	}
	// Retiring the store invalidates the memoized source.
	tr.Remove(1)
	if _, ok := tr.ForwardingSource(2); ok {
		t.Fatal("retired store still forwarded")
	}
}

// TestForwardingMemoAfterWindowOverflow forces the delta log to
// overflow so the full-rescan fallback runs.
func TestForwardingMemoAfterWindowOverflow(t *testing.T) {
	tr := NewTracker()
	ld := tr.Add(0, true)
	tr.SetAddress(ld, 0x10, 8)
	tr.SetPlaced(ld)
	tr.ForwardingSource(0) // memo: no source
	// Push far more candidates through than the window holds; the last
	// one is younger than the load so none may forward — but one older
	// overlapping store added via out-of-order address arrival must be
	// found after the overflow.
	for i := 1; i <= 3*candWindow; i++ {
		op := tr.Add(uint64(i), false)
		tr.SetPlaced(op)
		tr.SetAddress(op, 0x10, 8)
	}
	if _, ok := tr.ForwardingSource(0); ok {
		t.Fatal("younger stores forwarded to an older load")
	}
}

func BenchmarkHotPathTrackerChurn(b *testing.B) {
	tr := NewTracker()
	seq := uint64(0)
	trackerChurn(tr, seq, 128)
	seq += 128
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trackerChurn(tr, seq, 128)
		seq += 128
	}
}

func BenchmarkHotPathForwardingSource(b *testing.B) {
	tr := NewTracker()
	for i := 0; i < 64; i++ {
		op := tr.Add(uint64(i), i%2 == 0)
		tr.SetPlaced(op)
		tr.SetAddress(op, 0x1000+uint64(i)*8, 8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ForwardingSource(63)
	}
}

// BenchmarkHotPathForwardingSourceCold measures first probes: each
// iteration re-addresses one load of a 128-op window (one op in three
// a store), which drops its memo, so ForwardingSource walks the store
// index. Half of the loads match a store 64 ops back; the rest scan
// every older store and find none.
func BenchmarkHotPathForwardingSourceCold(b *testing.B) {
	tr := NewTracker()
	var loads []*Op
	for i := 0; i < 128; i++ {
		op := tr.Add(uint64(i), i%3 != 0)
		tr.SetPlaced(op)
		tr.SetAddress(op, 0x1000+uint64(i%64)*8, 8)
		if op.IsLoad {
			loads = append(loads, op)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := loads[i%len(loads)]
		tr.SetAddress(op, op.Addr, op.Size)
		tr.ForwardingSource(op.Seq)
	}
}
