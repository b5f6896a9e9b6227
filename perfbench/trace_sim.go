package main

import (
	"fmt"
	"time"

	"samielsq/internal/core"
	"samielsq/internal/cpu"
	"samielsq/internal/energy"
	"samielsq/internal/experiments"
	"samielsq/internal/lsq"
	"samielsq/internal/mem"
	"samielsq/internal/obs"
	"samielsq/internal/tlb"
	"samielsq/internal/trace"
)

// simTracer runs specs through the same assembly experiments.Run uses,
// but hands cpu.New a timing wrapper around the lsq.Model and the
// isa.Stream, so the host time of each layer is measured from outside
// the program.
type simTracer struct {
	rec    *recorder
	lsq    lsqCounters
	next   callStat
	cycles uint64 // simulated cycles of every traced run, warmup included
}

// run mirrors experiments.Run for one spec.
func (t *simTracer) run(spec experiments.RunSpec) experiments.RunResult {
	runID := t.rec.newRun()
	start := time.Now()
	n := experiments.Normalize(spec)
	meter := energy.NewMeter()
	model, samie, conv := newModel(n, meter)
	counters := &lsqCounters{}
	var next callStat
	tm := newTimer()
	hier := mem.NewPaper()
	strm := timedStream{s: trace.SharedStream(trace.MustPersonality(n.Benchmark)), c: &next, t: tm}
	c := cpu.New(*n.CPU, strm, wrapModel(model, counters, tm), hier, tlb.New(tlb.PaperDTLB()), nil, meter)
	sampler := obs.NewIntervalSampler(0, 0)
	sampler.SetEnabled(true)
	c.SetSampler(sampler)
	built := time.Now()

	res := experiments.RunResult{Spec: n, Meter: meter, Hier: hier}
	res.CPU, _, _ = c.RunWarmTimed(n.Warmup, n.Insts)
	if samie != nil {
		res.SAMIE = samie.Stats()
	}
	if conv != nil {
		res.Conv = conv.Occupancy()
	}
	end := time.Now()

	label := fmt.Sprintf("%s/%d", n.Benchmark, n.Model)
	parent := t.rec.interval(runID, 0, "run", label, start, end)
	t.rec.interval(runID, parent, "cpu.new", "", start, built)
	calls, busy := counters.total()
	t.rec.add(span{Run: runID, Parent: parent, Name: "lsq", Start: t.rec.at(built), End: t.rec.at(end),
		Calls: calls, BusyNs: int64(busy)})
	t.rec.add(span{Run: runID, Parent: parent, Name: "trace.next", Start: t.rec.at(built), End: t.rec.at(end),
		Calls: next.calls, BusyNs: int64(next.estNs())})
	t.lsq.add(counters)
	t.next.add(next)
	t.cycles += c.Cycle()
	return res
}

// newModel builds the LSQ model of a normalized spec as
// experiments.Run does, returning it also as its concrete type when
// the run reports that type's statistics.
func newModel(n experiments.RunSpec, meter *energy.Meter) (lsq.Model, *core.SAMIE, *lsq.Conventional) {
	switch n.Model {
	case experiments.ModelConventional:
		conv := lsq.NewConventional(n.ConvEntries, meter)
		return conv, nil, conv
	case experiments.ModelARB:
		return lsq.NewARB(n.ARBBanks, n.ARBAddrs, n.ARBInflight), nil, nil
	case experiments.ModelSAMIE:
		samie := core.New(*n.SAMIE, meter)
		return samie, samie, nil
	}
	return lsq.NewUnbounded(), nil, nil
}

// runSimTraced is the -trace 1 run of a sim-* workload. Each run goes
// through the traced assembly and then, at once, through
// experiments.Run untraced: the tracing overhead is measured on
// identical work under the same host conditions, and the two results
// must agree.
func runSimTraced(res *result, specs []simSpec, o options, check func(simSpec, experiments.RunResult)) error {
	perCall := calibrateTimer()
	tr := &simTracer{rec: newRecorder()}
	var agg, measured simAgg
	var tracedNs, plainNs time.Duration
	both := func(spec experiments.RunSpec) experiments.RunResult {
		t := time.Now()
		r := tr.run(spec)
		tracedNs += time.Since(t)
		t = time.Now()
		p := experiments.Run(spec)
		plainNs += time.Since(t)
		measured.add(p)
		res.Attempted++
		if fingerprint(p) != fingerprint(r) {
			res.fail("%s/%d: traced and untraced runs differ", spec.Benchmark, spec.Model)
		}
		return r
	}
	seen := 0
	traced := closedLoop(specs, time.Duration(o.seconds*float64(time.Second)), both,
		func(s simSpec, r experiments.RunResult) {
			check(s, r)
			if seen < len(specs) {
				agg.add(r)
			}
			seen++
		})
	agg.measuredS, agg.measuredCycles = measured.measuredS, measured.measuredCycles
	agg.report(res)

	// Self times come from the spans. Every wrapped call added perCall
	// ns to its run on average: remove that so the shares describe the
	// untraced program.
	self := tr.rec.selfTimes()
	lsqNs, nextNs := float64(self["lsq"].selfNs), float64(self["trace.next"].selfNs)
	newNs := float64(self["cpu.new"].selfNs)
	var spanned int64
	for _, lt := range self {
		spanned += lt.selfNs
	}
	runNs := float64(spanned) - float64(self["lsq"].calls+self["trace.next"].calls)*perCall
	cpuSelf := runNs - newNs - lsqNs - nextNs
	res.set("cpu.self_share", ratio(cpuSelf, runNs))
	res.set("cpu.self_ns_per_cycle", ratio(cpuSelf, float64(tr.cycles)))
	res.set("cpu.new_share", ratio(newNs, runNs))
	res.set("lsq.self_share", ratio(lsqNs, runNs))
	res.set("trace.self_share", ratio(nextNs, runNs))
	res.set("trace.next_ns_per_inst", tr.next.perCall())

	c := &tr.lsq
	res.set("lsq.fwd_calls_per_load", ratio(float64(c.fwd.calls), float64(c.loadAddrs)))
	res.set("lsq.fwd_ok_ratio", ratio(float64(c.fwdOK), float64(c.fwd.calls)))
	res.set("lsq.fwd_ns", c.fwd.perCall())
	res.set("lsq.fwd_share", ratio(c.fwd.estNs(), runNs))
	res.set("lsq.addr_ready_ns", c.addrReady.perCall())
	res.set("lsq.buffered_ratio", ratio(float64(c.buffered), float64(c.addrReady.calls)))
	res.set("lsq.tick_ns", c.tick.perCall())
	res.set("lsq.commit_ns", c.commit.perCall())
	res.set("lsq.dispatch_refused", 1000*ratio(float64(c.dispatchRefused), float64(traced.insts)))

	res.set("bench.timer_ns_per_call", perCall)
	res.set("bench.trace_overhead_ratio", ratio(float64(tracedNs), float64(plainNs)))
	// The traced runs minus the calibrated timer cost, against the same
	// runs untraced: 1 when the spans account for all the untraced time.
	res.set("bench.accounted_ratio", ratio(runNs, float64(plainNs)))
	plainSpecs := make([]experiments.RunSpec, len(specs))
	for i, s := range specs {
		plainSpecs[i] = s.spec
	}
	res.set("experiments.key_us", keyMicros(plainSpecs))
	return tr.rec.write(spanDir(o), fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
}

// keyMicros is the mean host time of one experiments.Key call over the
// workload's specs.
func keyMicros(specs []experiments.RunSpec) float64 {
	const reps = 200
	start := time.Now()
	for i := 0; i < reps; i++ {
		for _, s := range specs {
			experiments.Key(s)
		}
	}
	return float64(time.Since(start)) / 1e3 / float64(reps*len(specs))
}
