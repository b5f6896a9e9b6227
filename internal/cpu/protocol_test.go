package cpu

import (
	"testing"

	"samielsq/internal/core"
	"samielsq/internal/isa"
	"samielsq/internal/lsq"
	"samielsq/internal/trace"
)

// recordingModel wraps an lsq.Model and checks the per-memory-op half
// of the Model protocol as the CPU drives it.
type recordingModel struct {
	lsq.Model
	t *testing.T

	mem     map[uint64]bool // seqs ever dispatched as memory ops
	commits []uint64
}

func (m *recordingModel) memOp(call string, seq uint64) {
	if !m.mem[seq] {
		m.t.Errorf("%s(%d): seq was never dispatched as a memory op", call, seq)
	}
}

func (m *recordingModel) Dispatch(seq uint64, isLoad bool) bool {
	ok := m.Model.Dispatch(seq, isLoad)
	if ok {
		m.mem[seq] = true
	}
	return ok
}

func (m *recordingModel) AddressReady(seq uint64, isLoad bool, addr uint64, size uint8) lsq.Placement {
	m.memOp("AddressReady", seq)
	return m.Model.AddressReady(seq, isLoad, addr, size)
}

func (m *recordingModel) ForwardingSource(seq uint64) (uint64, bool) {
	m.memOp("ForwardingSource", seq)
	return m.Model.ForwardingSource(seq)
}

func (m *recordingModel) Plan(seq uint64) lsq.AccessPlan {
	m.memOp("Plan", seq)
	return m.Model.Plan(seq)
}

func (m *recordingModel) NotePerformed(seq uint64) {
	m.memOp("NotePerformed", seq)
	m.Model.NotePerformed(seq)
}

func (m *recordingModel) Commit(seq uint64) {
	m.memOp("Commit", seq)
	if n := len(m.commits); n > 0 && seq <= m.commits[n-1] {
		m.t.Errorf("Commit(%d) after Commit(%d): not in program order", seq, m.commits[n-1])
	}
	m.commits = append(m.commits, seq)
	m.Model.Commit(seq)
}

// firstSeqStream records the sequence number of the first instruction
// it delivers.
type firstSeqStream struct {
	isa.Stream
	first   uint64
	started bool
}

func (s *firstSeqStream) Next(out *isa.Inst) bool {
	ok := s.Stream.Next(out)
	if ok && !s.started {
		s.first, s.started = out.Seq, true
	}
	return ok
}

// TestModelProtocolConformance runs the CPU against a recording model
// under every LSQ model and checks that it only ever addresses memory
// ops through the per-instruction calls, commits each committed memory
// op exactly once and in program order (and nothing else), and that
// recording changes nothing about the run.
func TestModelProtocolConformance(t *testing.T) {
	models := map[string]func() lsq.Model{
		"conventional": func() lsq.Model { return lsq.NewConventional(128, nil) },
		"unbounded":    func() lsq.Model { return lsq.NewUnbounded() },
		"arb":          func() lsq.Model { return lsq.NewARB(8, 16, 128) },
		"samie":        func() lsq.Model { return core.NewPaper(nil) },
	}
	const insts = 20_000
	for _, bench := range []string{"gzip", "store-burst"} {
		for name, mk := range models {
			t.Run(bench+"/"+name, func(t *testing.T) {
				p := trace.MustPersonality(bench)
				want := New(PaperConfig(), trace.NewGenerator(p), mk(), nil, nil, nil, nil).Run(insts)

				rec := &recordingModel{Model: mk(), t: t, mem: make(map[uint64]bool)}
				strm := &firstSeqStream{Stream: trace.NewGenerator(p)}
				got := New(PaperConfig(), strm, rec, nil, nil, nil, nil).Run(insts)
				if got != want {
					t.Errorf("recorded run differs:\nrecorded:  %+v\nunwrapped: %+v", got, want)
				}

				// Commit is in order, so exactly the memory ops among the
				// first Committed seqs must have committed.
				var wantCommits int
				for seq := strm.first; seq < strm.first+got.Committed; seq++ {
					if rec.mem[seq] {
						wantCommits++
					}
				}
				if len(rec.commits) != wantCommits {
					t.Errorf("%d Commit calls, want one per committed memory op (%d)", len(rec.commits), wantCommits)
				}
				if n := len(rec.commits); n > 0 && rec.commits[n-1] >= strm.first+got.Committed {
					t.Errorf("Commit(%d) beyond the last committed seq %d", rec.commits[n-1], strm.first+got.Committed-1)
				}
			})
		}
	}
}
