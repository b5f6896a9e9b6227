package lsq

import (
	"math/rand"
	"testing"
)

// oracleOp is the brute-force model's view of one tracked op.
type oracleOp struct {
	seq                   uint64
	isLoad                bool
	addr                  uint64
	size                  uint8
	known, placed, buffer bool
}

func (o *oracleOp) candidate() bool { return o.placed && o.known }

// oracleTracker is the specification the Tracker's incremental
// structures (seqHint, Fenwick trees, store index, forwarding memos)
// must agree with: an age-ordered slice searched exhaustively.
type oracleTracker struct {
	ops []*oracleOp
}

func (m *oracleTracker) index(seq uint64) int {
	for i, o := range m.ops {
		if o.seq == seq {
			return i
		}
	}
	return -1
}

// forwardingSource is the youngest older store that is placed, has a
// known address and overlaps the load.
func (m *oracleTracker) forwardingSource(seq uint64) (uint64, bool) {
	i := m.index(seq)
	if i < 0 || !m.ops[i].isLoad || !m.ops[i].known {
		return 0, false
	}
	ld := m.ops[i]
	for j := i - 1; j >= 0; j-- {
		st := m.ops[j]
		if !st.isLoad && st.candidate() &&
			ld.addr < st.addr+uint64(st.size) && st.addr < ld.addr+uint64(ld.size) {
			return st.seq, true
		}
	}
	return 0, false
}

func (m *oracleTracker) countOlderKnownStores(seq uint64) int {
	n := 0
	for _, o := range m.ops[:max(m.index(seq), 0)] {
		if !o.isLoad && o.candidate() {
			n++
		}
	}
	return n
}

func (m *oracleTracker) countYoungerKnownLoads(seq uint64) int {
	i := m.index(seq)
	if i < 0 {
		return 0
	}
	n := 0
	for _, o := range m.ops[i+1:] {
		if o.isLoad && o.candidate() {
			n++
		}
	}
	return n
}

// TestTrackerMatchesOracle drives the tracker with randomized op
// streams and checks every query against the brute-force oracle after
// every step. The streams mix in-order commits with out-of-order
// address arrival, placement and buffering, the test-only out-of-order
// removal and whole-window clears. Some loads are probed only rarely,
// so their forwarding memos lag past candWindow and take the rescan
// path, while the rest exercise the incremental repair. Occasional seq
// gaps of seqHintSize force seqHint collisions onto the search
// fallback.
func TestTrackerMatchesOracle(t *testing.T) {
	const steps = 3000
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTracker()
		var m oracleTracker
		var nextSeq uint64
		target := 8
		candidates := 0
		for step := 0; step < steps; step++ {
			if rng.Intn(200) == 0 {
				target = 4 + rng.Intn(200)
			}
			n := len(m.ops)
			switch r := rng.Intn(1000); {
			case r < 320 && n < target:
				nextSeq += 1 + uint64(rng.Intn(3))
				if rng.Intn(50) == 0 {
					nextSeq += seqHintSize
				}
				o := &oracleOp{seq: nextSeq, isLoad: rng.Intn(3) != 0}
				tr.Add(o.seq, o.isLoad)
				m.ops = append(m.ops, o)
			case r < 580 && n > 0:
				o := m.ops[rng.Intn(n)]
				if !o.known {
					o.known = true
					o.addr = 0x1000 + uint64(rng.Intn(32))*4
					o.size = uint8(1 << rng.Intn(4))
					tr.SetAddress(tr.Get(o.seq), o.addr, o.size)
					if !o.isLoad && o.candidate() {
						candidates++
					}
				}
			case r < 800 && n > 0:
				o := m.ops[rng.Intn(n)]
				if !o.placed {
					o.placed, o.buffer = true, false
					tr.SetPlaced(tr.Get(o.seq))
					if !o.isLoad && o.candidate() {
						candidates++
					}
				}
			case r < 830 && n > 0:
				o := m.ops[rng.Intn(n)]
				if !o.placed {
					o.buffer = true
					tr.SetBuffered(tr.Get(o.seq))
				}
			case r < 970 && n > 0:
				front := m.ops[0]
				if got := tr.Remove(front.seq); got == nil || got.Seq != front.seq {
					t.Fatalf("seed %d step %d: in-order Remove(%d) = %v", seed, step, front.seq, got)
				}
				m.ops = m.ops[1:]
			case r < 995 && n > 0:
				i := rng.Intn(n)
				seq := m.ops[i].seq
				if got := tr.Remove(seq); got == nil || got.Seq != seq {
					t.Fatalf("seed %d step %d: out-of-order Remove(%d) = %v", seed, step, seq, got)
				}
				m.ops = append(m.ops[:i], m.ops[i+1:]...)
			case r >= 998:
				if n > 0 {
					nextSeq = m.ops[0].seq - 1 // replay re-adds the cleared seqs, like a flush
				}
				tr.Clear()
				m.ops = m.ops[:0]
			}
			checkTrackerAgainstOracle(t, tr, &m, step, seed)
		}
		if candidates <= candWindow {
			t.Errorf("seed %d: only %d forwarding candidates, want > candWindow (%d)", seed, candidates, candWindow)
		}
		if len(tr.ops) <= 16 || len(tr.sring) <= 16 {
			t.Errorf("seed %d: op ring %d and store ring %d slots, want both grown past 16", seed, len(tr.ops), len(tr.sring))
		}
	}
}

func checkTrackerAgainstOracle(t *testing.T, tr *Tracker, m *oracleTracker, step int, seed int64) {
	t.Helper()
	if tr.Len() != len(m.ops) {
		t.Fatalf("seed %d step %d: Len = %d, oracle %d", seed, step, tr.Len(), len(m.ops))
	}
	for i, o := range m.ops {
		op := tr.Get(o.seq)
		if op == nil || op.Seq != o.seq || op.IsLoad != o.isLoad || op.AddrKnown != o.known ||
			op.Placed != o.placed || op.Buffered != o.buffer {
			t.Fatalf("seed %d step %d: Get(%d) = %+v, oracle %+v", seed, step, o.seq, op, *o)
		}
		if got := tr.IndexOf(o.seq); got != i {
			t.Fatalf("seed %d step %d: IndexOf(%d) = %d, oracle %d", seed, step, o.seq, got, i)
		}
		if got, want := tr.CountOlderKnownStores(o.seq), m.countOlderKnownStores(o.seq); got != want {
			t.Fatalf("seed %d step %d: CountOlderKnownStores(%d) = %d, oracle %d", seed, step, o.seq, got, want)
		}
		if got, want := tr.CountYoungerKnownLoads(o.seq), m.countYoungerKnownLoads(o.seq); got != want {
			t.Fatalf("seed %d step %d: CountYoungerKnownLoads(%d) = %d, oracle %d", seed, step, o.seq, got, want)
		}
		// Every fifth seq is probed only once per 150 steps, so its
		// memo lags by more than candWindow candidates.
		if o.seq%5 == 0 && step%150 != 0 {
			continue
		}
		src, ok := tr.ForwardingSource(o.seq)
		wantSrc, wantOK := m.forwardingSource(o.seq)
		if src != wantSrc || ok != wantOK {
			t.Fatalf("seed %d step %d: ForwardingSource(%d) = %d %v, oracle %d %v", seed, step, o.seq, src, ok, wantSrc, wantOK)
		}
	}
	// Seqs that are not tracked: before the first Add, beyond the
	// youngest, and one colliding with the youngest in seqHint.
	var last uint64
	if len(m.ops) > 0 {
		last = m.ops[len(m.ops)-1].seq
	}
	for _, seq := range []uint64{0, last + 1, last + seqHintSize} {
		if m.index(seq) >= 0 {
			continue
		}
		if tr.Get(seq) != nil || tr.IndexOf(seq) != -1 {
			t.Fatalf("seed %d step %d: untracked seq %d found", seed, step, seq)
		}
		if _, ok := tr.ForwardingSource(seq); ok {
			t.Fatalf("seed %d step %d: untracked seq %d forwarded", seed, step, seq)
		}
	}
}
