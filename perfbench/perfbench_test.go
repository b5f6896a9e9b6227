package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"samielsq/internal/energy"
	"samielsq/internal/experiments"
	"samielsq/pkg/client"
)

// TestCorruptedExpectationCountsAsFailure shows that every output check
// counts a wrong expectation as a failed operation and keeps going.
func TestCorruptedExpectationCountsAsFailure(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	specs := specsFor([]string{"gzip"})[:2]
	bad := reference{Insts: ref.Insts, Runs: map[string]string{}}
	for k, v := range ref.Runs {
		bad.Runs[k] = v
	}
	bad.Runs[specs[0].label] = "0123456789abcdef01234567"
	res := &result{}
	for _, s := range specs {
		res.checkRun(bad, s, experiments.Run(s.spec))
	}
	if res.Attempted != 2 || res.Failed != 1 {
		t.Errorf("sim check: attempted %d failed %d, want 2 and 1", res.Attempted, res.Failed)
	}

	res = &result{}
	res.checkRenderings([]string{"figure\n", "figure!\n"}, "figure\n")
	if res.Attempted != 2 || res.Failed != 1 {
		t.Errorf("sweep rendering check: attempted %d failed %d, want 2 and 1", res.Attempted, res.Failed)
	}

	rr := client.RunResponse{Key: "k", CPU: experiments.Run(specs[0].spec).CPU}
	want, err := payload(rr)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRead(want, rr); err != nil {
		t.Errorf("identical read body rejected: %v", err)
	}
	rr.CPU.Cycles++
	if checkRead(want, rr) == nil {
		t.Error("read body with a changed counter accepted")
	}
}

// TestTracedAssemblyIsTransparent shows the per-layer numbers come from
// the program the untraced run measures: for every pool personality
// under every model, the wrapped assembly gives experiments.Run's
// fingerprint.
func TestTracedAssemblyIsTransparent(t *testing.T) {
	tr := &simTracer{rec: newRecorder()}
	for _, w := range []simWorkload{simLoads, simStores} {
		for _, s := range specsFor(w.pool()) {
			s.spec.Insts = 2000
			got, want := fingerprint(tr.run(s.spec)), fingerprint(experiments.Run(s.spec))
			if got != want {
				t.Errorf("%s: traced fingerprint %s, experiments.Run %s", s.label, got, want)
			}
		}
	}
	if tr.lsq.fwd.calls == 0 || tr.next.calls == 0 {
		t.Errorf("wrappers saw no calls: %d forwarding, %d stream", tr.lsq.fwd.calls, tr.next.calls)
	}
}

// TestWrapperExposesAddrBufferLen checks that the timing wrapper keeps
// the optional AddrBufferLen method exactly when the model has it.
func TestWrapperExposesAddrBufferLen(t *testing.T) {
	for _, m := range simModels {
		model, _, _ := newModel(experiments.Normalize(m.spec), energy.NewMeter())
		_, inner := model.(interface{ AddrBufferLen() int })
		_, outer := wrapModel(model, &lsqCounters{}, newTimer()).(interface{ AddrBufferLen() int })
		if inner != outer {
			t.Errorf("%s: model has AddrBufferLen %v, wrapper %v", m.label, inner, outer)
		}
	}
}

// TestReferenceCoversPools checks the recorded reference names every
// run either sim-* workload can draw, and that the pools split the
// suite as documented.
func TestReferenceCoversPools(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	loads, stores := simLoads.pool(), simStores.pool()
	if len(loads)+len(stores) != len(experiments.Benchmarks())+2 {
		t.Errorf("pools %v and %v do not partition the suite", loads, stores)
	}
	for _, w := range []simWorkload{simLoads, simStores} {
		for _, s := range specsFor(w.pool()) {
			if _, ok := ref.Runs[s.label]; !ok {
				t.Errorf("reference has no fingerprint for %s", s.label)
			}
		}
	}
}

// TestDrawsAreSeeded checks that a seed fixes the inputs and that the
// default seed's fabric sweep is the golden matrix.
func TestDrawsAreSeeded(t *testing.T) {
	labels := func(specs []simSpec) []string {
		var out []string
		for _, s := range specs {
			out = append(out, s.label)
		}
		return out
	}
	for _, w := range []simWorkload{simLoads, simStores} {
		a, b := labels(w.drawSpecs(3)), labels(w.drawSpecs(3))
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 3 drew %v then %v", w.name, a, b)
		}
		if len(a) != (w.draw+1)*len(simModels) || !slices.Contains(a, w.always+"/samie") {
			t.Errorf("%s: draw %v lacks %s or has the wrong size", w.name, a, w.always)
		}
		if slices.Equal(a, labels(w.drawSpecs(4))) {
			t.Errorf("%s: seeds 3 and 4 drew the same runs", w.name)
		}
	}
	if got := fabricBenchmarks(defaultSeed); !slices.Equal(got, []string{"ammp", "gzip", "mcf", "swim"}) {
		t.Errorf("default fabric sweep %v, want the golden matrix", got)
	}
}

// TestSelfTimeSubtractsCoveredUnion checks the span arithmetic:
// overlapping children cover their union, aggregated children their
// busy time.
func TestSelfTimeSubtractsCoveredUnion(t *testing.T) {
	r := newRecorder()
	p := r.add(span{Name: "sweep", Start: 0, End: 100, Calls: 1, BusyNs: 100})
	r.add(span{Parent: p, Name: "wire", Start: 10, End: 30, Calls: 1, BusyNs: 20})
	r.add(span{Parent: p, Name: "wire", Start: 20, End: 50, Calls: 1, BusyNs: 30})
	q := r.add(span{Name: "run", Start: 0, End: 100, Calls: 1, BusyNs: 100})
	r.add(span{Parent: q, Name: "lsq", Start: 0, End: 100, Calls: 40, BusyNs: 25})
	self := r.selfTimes()
	if self["sweep"].selfNs != 60 || self["run"].selfNs != 75 || self["wire"].selfNs != 50 {
		t.Errorf("self times %+v", self)
	}
}

// TestBenchmarkJSONMatchesCatalog checks BENCHMARK.json lists exactly
// the metrics the program reports, with the same units.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range b.Workloads {
		wl = append(wl, w.Name)
	}
	slices.Sort(wl)
	if !slices.Equal(wl, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", wl, workloadNames())
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		names  []string
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		var names []string
		for _, m := range c.listed {
			names = append(names, m.Name)
			if metricUnits[m.Name] != m.Unit {
				t.Errorf("%s: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, metricUnits[m.Name])
			}
		}
		if !slices.Equal(names, c.names) {
			t.Errorf("BENCHMARK.json lists %v, program reports %v", names, c.names)
		}
	}
}
