package main

import (
	"time"

	"samielsq/internal/isa"
	"samielsq/internal/lsq"
)

// sampleEvery sets how many wrapped calls share one timed call: reading
// the clock costs more than most lsq.Model calls, so timing every call
// would more than double a run's host time.
const sampleEvery = 16

// clockBase anchors nanos. time.Since reads only the monotonic clock,
// half the work of time.Now.
var clockBase = time.Now()

func nanos() int64 { return int64(time.Since(clockBase)) }

// timer picks the wrapped calls that are timed, one in sampleEvery on
// average, with a xorshift generator so the choice cannot lock onto a
// periodic call pattern of the core.
type timer struct{ x uint64 }

func newTimer() *timer { return &timer{x: 0x9e3779b97f4a7c15} }

// start returns the clock if this call is timed, else -1.
func (t *timer) start() int64 {
	t.x ^= t.x << 13
	t.x ^= t.x >> 7
	t.x ^= t.x << 17
	if t.x%sampleEvery != 0 {
		return -1
	}
	return nanos()
}

// callStat counts the calls through one wrapped method and the host
// time of the timed ones.
type callStat struct{ calls, timed, ns int64 }

// stop ends a call start began. A timed call's interval also holds
// part of the two clock reads around it; an empty interval measured
// right after, in the same cache and branch state, stands for that
// part and is subtracted.
func (s *callStat) stop(t0 int64) {
	s.calls++
	if t0 < 0 {
		return
	}
	d := nanos() - t0
	t1 := nanos()
	s.timed++
	s.ns += d - (nanos() - t1)
}

func (s *callStat) add(o callStat) {
	s.calls += o.calls
	s.timed += o.timed
	s.ns += o.ns
}

// perCall is the mean host time of one timed call.
func (s callStat) perCall() float64 { return ratio(float64(s.ns), float64(s.timed)) }

// estNs estimates the host time of every call from the timed ones.
func (s callStat) estNs() float64 { return s.perCall() * float64(s.calls) }

// lsqCounters is what the timing wrapper records for one lsq.Model.
type lsqCounters struct {
	dispatch, addrReady, tick, placed, fwd, plan, record, performed,
	clearLoc, commit, flush, account, reset, freeCap, inFlight callStat

	dispatchRefused int64
	loadAddrs       int64 // AddressReady calls for loads
	buffered        int64 // AddressReady placements that were buffered
	fwdOK           int64 // ForwardingSource calls that found a store
}

func (c *lsqCounters) all() []*callStat {
	return []*callStat{&c.dispatch, &c.addrReady, &c.tick, &c.placed, &c.fwd, &c.plan, &c.record,
		&c.performed, &c.clearLoc, &c.commit, &c.flush, &c.account, &c.reset, &c.freeCap, &c.inFlight}
}

// total returns the calls through every wrapped method and their
// estimated host time.
func (c *lsqCounters) total() (calls int64, estNs float64) {
	for _, s := range c.all() {
		calls += s.calls
		estNs += s.estNs()
	}
	return calls, estNs
}

func (c *lsqCounters) add(o *lsqCounters) {
	mine, theirs := c.all(), o.all()
	for i := range mine {
		mine[i].add(*theirs[i])
	}
	c.dispatchRefused += o.dispatchRefused
	c.loadAddrs += o.loadAddrs
	c.buffered += o.buffered
	c.fwdOK += o.fwdOK
}

// timedModel forwards every lsq.Model call to the wrapped model,
// counting it and timing a sample. It changes no argument and no result.
type timedModel struct {
	m lsq.Model
	c *lsqCounters
	t *timer
}

// timedABModel is a timedModel over a model with an AddrBuffer: the
// core's interval telemetry type-asserts AddrBufferLen, so the wrapper
// must expose it exactly when the wrapped model does.
type timedABModel struct {
	timedModel
	ab interface{ AddrBufferLen() int }
}

func (m timedABModel) AddrBufferLen() int { return m.ab.AddrBufferLen() }

// wrapModel returns the timing wrapper for m.
func wrapModel(m lsq.Model, c *lsqCounters, t *timer) lsq.Model {
	tm := timedModel{m: m, c: c, t: t}
	if ab, ok := m.(interface{ AddrBufferLen() int }); ok {
		return timedABModel{timedModel: tm, ab: ab}
	}
	return tm
}

func (m timedModel) Name() string { return m.m.Name() }

func (m timedModel) Dispatch(seq uint64, isLoad bool) bool {
	t := m.t.start()
	ok := m.m.Dispatch(seq, isLoad)
	m.c.dispatch.stop(t)
	if !ok {
		m.c.dispatchRefused++
	}
	return ok
}

func (m timedModel) AddressReady(seq uint64, isLoad bool, addr uint64, size uint8) lsq.Placement {
	t := m.t.start()
	p := m.m.AddressReady(seq, isLoad, addr, size)
	m.c.addrReady.stop(t)
	if isLoad {
		m.c.loadAddrs++
	}
	if p.Buffered {
		m.c.buffered++
	}
	return p
}

func (m timedModel) Tick() []uint64 {
	t := m.t.start()
	moved := m.m.Tick()
	m.c.tick.stop(t)
	return moved
}

func (m timedModel) Placed(seq uint64) bool {
	t := m.t.start()
	ok := m.m.Placed(seq)
	m.c.placed.stop(t)
	return ok
}

func (m timedModel) ForwardingSource(seq uint64) (uint64, bool) {
	t := m.t.start()
	store, ok := m.m.ForwardingSource(seq)
	m.c.fwd.stop(t)
	if ok {
		m.c.fwdOK++
	}
	return store, ok
}

func (m timedModel) Plan(seq uint64) lsq.AccessPlan {
	t := m.t.start()
	p := m.m.Plan(seq)
	m.c.plan.stop(t)
	return p
}

func (m timedModel) RecordAccess(seq uint64, set, way int, vpn uint64) {
	t := m.t.start()
	m.m.RecordAccess(seq, set, way, vpn)
	m.c.record.stop(t)
}

func (m timedModel) NotePerformed(seq uint64) {
	t := m.t.start()
	m.m.NotePerformed(seq)
	m.c.performed.stop(t)
}

func (m timedModel) ClearCachedLocations() {
	t := m.t.start()
	m.m.ClearCachedLocations()
	m.c.clearLoc.stop(t)
}

func (m timedModel) Commit(seq uint64) {
	t := m.t.start()
	m.m.Commit(seq)
	m.c.commit.stop(t)
}

func (m timedModel) Flush() {
	t := m.t.start()
	m.m.Flush()
	m.c.flush.stop(t)
}

func (m timedModel) AccountCycle() {
	t := m.t.start()
	m.m.AccountCycle()
	m.c.account.stop(t)
}

func (m timedModel) ResetStats() {
	t := m.t.start()
	m.m.ResetStats()
	m.c.reset.stop(t)
}

func (m timedModel) FreeCapacity() int {
	t := m.t.start()
	n := m.m.FreeCapacity()
	m.c.freeCap.stop(t)
	return n
}

func (m timedModel) InFlight() int {
	t := m.t.start()
	n := m.m.InFlight()
	m.c.inFlight.stop(t)
	return n
}

// timedStream counts every Next call of an instruction stream and
// times a sample of them of an instruction stream.
type timedStream struct {
	s isa.Stream
	c *callStat
	t *timer
}

func (s timedStream) Next(out *isa.Inst) bool {
	t := s.t.start()
	ok := s.s.Next(out)
	s.c.stop(t)
	return ok
}

// calibrateTimer returns the host time the wrapping adds to each
// wrapped call on average: the sampling decision, and for a timed call
// its four clock reads. The median of several trials rides out a
// descheduled one.
func calibrateTimer() float64 {
	const n = 1 << 20
	var trials []float64
	for i := 0; i < 5; i++ {
		var s callStat
		t := newTimer()
		start := nanos()
		for j := 0; j < n; j++ {
			s.stop(t.start())
		}
		trials = append(trials, float64(nanos()-start)/n)
	}
	return median(trials)
}
