package main

import (
	"samielsq/internal/core"
	"samielsq/internal/experiments"
)

// simAgg sums the simulated statistics of a set of runs into the
// per-layer context metrics of internal/cpu, internal/core,
// internal/mem and internal/tlb. These are simulated counts, not host
// time: a host-only change must leave every one of them unchanged.
type simAgg struct {
	committed, cycles uint64
	// head-of-ROB stall cycles by class, in cpu.Result order.
	waitIssue, waitExec, readyBit, noPort, loadData, storeWait, unplaced uint64
	fetchBranch, flushes                                                 uint64

	memOps, l1dMisses     float64
	dtlbLookups, dtlbMiss float64
	l2, l2Committed       uint64 // only runs that carry their hierarchy

	samie          core.Stats // summed over SAMIE runs
	samieCommitted uint64

	measuredS      float64 // host seconds of the measured phases
	measuredCycles uint64
}

func (a *simAgg) add(r experiments.RunResult) {
	c := r.CPU
	a.committed += c.Committed
	a.cycles += c.Cycles
	a.waitIssue += c.HeadWaitIssue
	a.waitExec += c.HeadWaitExec
	a.readyBit += c.HeadLoadReadyBit
	a.noPort += c.HeadLoadNoPort
	a.loadData += c.HeadLoadData
	a.storeWait += c.HeadStoreWait
	a.unplaced += c.HeadUnplaced
	a.fetchBranch += c.FetchStallBranch
	a.flushes += c.DeadlockFlushes + c.PlacementFailures
	ops := float64(c.Loads + c.Stores)
	a.memOps += ops
	a.l1dMisses += c.L1DMissRate * ops
	if r.Meter != nil {
		lookups := float64(r.Meter.NDTLBLookups)
		a.dtlbLookups += lookups
		a.dtlbMiss += c.DTLBMissRate * lookups
	}
	if r.Hier != nil {
		a.l2 += r.Hier.L2Accesses()
		a.l2Committed += c.Committed
	}
	if r.Spec.Model == experiments.ModelSAMIE {
		s := r.SAMIE
		a.samie.PlacedDistrib += s.PlacedDistrib
		a.samie.PlacedShared += s.PlacedShared
		a.samie.Buffered += s.Buffered
		a.samie.PlaceFailures += s.PlaceFailures
		a.samie.WayKnownHits += s.WayKnownHits
		a.samie.Cycles += s.Cycles
		a.samie.SumSharedOcc += s.SumSharedOcc
		a.samie.CyclesABNonEmpty += s.CyclesABNonEmpty
		a.samieCommitted += c.Committed
	}
	if r.Phases.Measured > 0 {
		a.measuredS += r.Phases.Measured
		a.measuredCycles += c.Cycles
	}
}

// report sets the simulated per-layer metrics, plus cpu.ns_per_cycle
// from the host time the runs' measured phases took.
func (a *simAgg) report(res *result) {
	inst := float64(a.committed)
	perInst := func(cycles uint64) float64 { return ratio(float64(cycles), inst) }
	res.set("cpu.cycles", float64(a.cycles))
	res.set("cpu.ipc", ratio(inst, float64(a.cycles)))
	res.set("cpu.flushes_per_kinst", 1000*perInst(a.flushes))
	res.set("cpu.cpi_wait_issue", perInst(a.waitIssue))
	res.set("cpu.cpi_wait_exec", perInst(a.waitExec))
	res.set("cpu.cpi_load_readybit", perInst(a.readyBit))
	res.set("cpu.cpi_load_noport", perInst(a.noPort))
	res.set("cpu.cpi_load_data", perInst(a.loadData))
	res.set("cpu.cpi_store_wait", perInst(a.storeWait))
	res.set("cpu.cpi_unplaced", perInst(a.unplaced))
	stalled := a.waitIssue + a.waitExec + a.readyBit + a.noPort + a.loadData + a.storeWait + a.unplaced
	res.set("cpu.cpi_other", perInst(a.cycles-stalled))
	res.set("cpu.cpi_fetch_branch", perInst(a.fetchBranch))
	res.set("cpu.ns_per_cycle", ratio(a.measuredS*1e9, float64(a.measuredCycles)))
	res.set("mem.l1d_miss_rate", ratio(a.l1dMisses, a.memOps))
	res.set("mem.l2_per_kinst", 1000*ratio(float64(a.l2), float64(a.l2Committed)))
	res.set("tlb.dtlb_miss_rate", ratio(a.dtlbMiss, a.dtlbLookups))

	s := a.samie
	kinst := float64(a.samieCommitted) / 1000
	res.set("core.placed_shared_ratio", ratio(float64(s.PlacedShared), float64(s.PlacedShared+s.PlacedDistrib)))
	res.set("core.buffered", ratio(float64(s.Buffered), kinst))
	res.set("core.place_failures", ratio(float64(s.PlaceFailures), kinst))
	res.set("core.way_known_hits", ratio(float64(s.WayKnownHits), kinst))
	res.set("core.mean_shared_occ", s.MeanSharedOcc())
	if s.Cycles > 0 {
		res.set("core.ab_empty_frac", s.ABEmptyFraction())
	}
}
