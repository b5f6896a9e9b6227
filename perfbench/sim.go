package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"time"

	"samielsq/internal/experiments"
	"samielsq/internal/isa"
	"samielsq/internal/trace"
)

// simInsts is the measured budget of every sim-* run; warmup is the
// library default, half of it. 75k simulated instructions per run
// keep the per-run construction cost (cache arrays, predictor tables)
// a small share while one pass over a pool still fits in a few
// seconds.
const simInsts = 50_000

// simWorkload is a closed loop of experiments.Run calls over the
// personalities drawn from a pool, each under every simModels entry.
type simWorkload struct {
	name   string
	inPool func(trace.Params) bool
	// always is the adversarial personality every draw includes.
	always string
	// draw is how many pool personalities a seed selects.
	draw int
}

// simLoads stresses the load path: cpu wakeup/issue, tryPerformLoad
// and LSQ forwarding, with few stores and no bank concentration.
var simLoads = simWorkload{
	name:   "sim-loads",
	inPool: func(p trace.Params) bool { return p.StoreFrac < 0.14 && p.BankSpread == 0 },
	always: "pointer-chaser",
	draw:   12,
}

// simStores stresses writes and placement: SAMIE AddrBuffer placement,
// Tick drains, shared entries and §3.3 placement-failure flushes.
var simStores = simWorkload{
	name:   "sim-stores",
	inPool: func(p trace.Params) bool { return p.StoreFrac >= 0.14 || p.BankSpread > 0 },
	always: "store-burst",
	draw:   8,
}

// simModels are the four LSQ organizations every drawn personality
// runs under: the SAMIE paper configuration, a 128-entry conventional
// LSQ, a 64x2 ARB with 128 in flight, and the unbounded reference.
var simModels = []struct {
	label string
	spec  experiments.RunSpec
}{
	{"samie", experiments.RunSpec{Model: experiments.ModelSAMIE}},
	{"conv128", experiments.RunSpec{Model: experiments.ModelConventional, ConvEntries: 128}},
	{"arb64x2", experiments.RunSpec{Model: experiments.ModelARB, ARBBanks: 64, ARBAddrs: 2, ARBInflight: 128}},
	{"unbounded", experiments.RunSpec{Model: experiments.ModelUnbounded}},
}

// simSpec is one run of a sim-* workload.
type simSpec struct {
	label string // "<benchmark>/<model>", the reference key
	spec  experiments.RunSpec
	insts uint64 // warmup plus measured instructions
}

// pool lists the workload's personalities, the always-drawn one last.
func (w simWorkload) pool() []string {
	var names []string
	for _, n := range trace.Benchmarks() {
		if w.inPool(trace.MustPersonality(n)) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return append(names, w.always)
}

// drawSpecs selects the seed's personalities and orders them; every
// personality runs under each model in simModels order.
func (w simWorkload) drawSpecs(seed int64) []simSpec {
	rng := rand.New(rand.NewSource(seed))
	pool := w.pool()
	cands := pool[:len(pool)-1]
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	chosen := append(cands[:w.draw:w.draw], w.always)
	rng.Shuffle(len(chosen), func(i, j int) { chosen[i], chosen[j] = chosen[j], chosen[i] })
	return specsFor(chosen)
}

func specsFor(benchmarks []string) []simSpec {
	var out []simSpec
	for _, b := range benchmarks {
		for _, m := range simModels {
			s := m.spec
			s.Benchmark, s.Insts = b, simInsts
			n := experiments.Normalize(s)
			out = append(out, simSpec{label: b + "/" + m.label, spec: s, insts: n.Insts + n.Warmup})
		}
	}
	return out
}

// setupReps is how many times set-up builds the drawn trace slabs; the
// last build fills the shared slab cache the runs replay.
const setupReps = 9

// buildSlabs materializes the trace of every drawn personality, far
// enough for a whole run, setupReps times. It returns the duration of
// each repetition and the slab footprint.
func buildSlabs(specs []simSpec) (samples []float64, slabBytes int64) {
	var names []string
	var need uint64
	seen := map[string]bool{}
	for _, s := range specs {
		if !seen[s.spec.Benchmark] {
			seen[s.spec.Benchmark] = true
			names = append(names, s.spec.Benchmark)
		}
		need = max(need, s.insts)
	}
	// The core fetches at most a ROB and a fetch queue past the last
	// committed instruction.
	need += 1024
	var inst isa.Inst
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		for _, n := range names {
			p := trace.MustPersonality(n)
			if rep < setupReps-1 {
				slab := trace.NewSlab(p)
				drain(slab.Stream(), need, &inst)
				if rep == 0 {
					slabBytes += slab.Bytes()
				}
			} else {
				drain(trace.SharedStream(p), need, &inst)
			}
		}
		samples = append(samples, time.Since(start).Seconds())
	}
	return samples, slabBytes
}

func drain(s *trace.SlabStream, n uint64, inst *isa.Inst) {
	for i := uint64(0); i < n; i++ {
		s.Next(inst)
	}
}

// loopStats is what one closed-loop pass measured.
type loopStats struct {
	rounds []window // one per complete pass over the specs
	insts  uint64
}

// closedLoop calls run on the specs back to back, in order and
// round-robin, until budget has elapsed after at least one complete
// round. check sees every result outside the timed call.
func closedLoop(specs []simSpec, budget time.Duration,
	run func(experiments.RunSpec) experiments.RunResult, check func(simSpec, experiments.RunResult)) loopStats {
	var st loopStats
	start := time.Now()
	roundStart := start
	var lat []float64
	for i := 0; ; i++ {
		s := specs[i%len(specs)]
		t := time.Now()
		r := run(s.spec)
		lat = append(lat, ms(time.Since(t)))
		st.insts += s.insts
		check(s, r)
		if (i+1)%len(specs) == 0 {
			now := time.Now()
			st.rounds = append(st.rounds, window{latMS: lat, ok: len(lat), secs: now.Sub(roundStart).Seconds()})
			roundStart, lat = now, nil
		}
		if len(st.rounds) > 0 && time.Since(start) >= budget {
			return st
		}
	}
}

// runSim drives a sim-* workload.
func runSim(w simWorkload, o options) (*result, error) {
	start := time.Now()
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	specs := w.drawSpecs(o.seed)
	setup, slabBytes := buildSlabs(specs)
	res := &result{}
	check := func(s simSpec, r experiments.RunResult) { res.checkRun(ref, s, r) }
	if o.trace {
		if err := runSimTraced(res, specs, o, check); err != nil {
			return nil, err
		}
		res.set("trace.slab_build_s", median(setup))
		res.set("trace.slab_mb", float64(slabBytes)/(1<<20))
		res.finishLayers(start)
		return res, nil
	}

	st := closedLoop(specs, time.Duration(o.seconds*float64(time.Second)), experiments.Run, check)
	var roundInsts uint64
	for _, s := range specs {
		roundInsts += s.insts
	}
	var secs []float64
	for _, w := range st.rounds {
		secs = append(secs, w.secs)
	}
	rss, err := selfPeakRSSMB()
	if err != nil {
		return nil, err
	}
	// A read is one experiments.Run call; its median is taken per round
	// and reported as the median over rounds.
	p50, _, _ := windowed(st.rounds)
	res.set("insts_per_s", float64(roundInsts)/median(secs))
	res.set("suite_s", median(secs))
	res.set("read_p50_ms", p50)
	res.set("setup_s", median(setup))
	res.set("peak_rss_mb", rss)
	return res, nil
}

// checkRun counts one run, and a failure if its fingerprint is not
// the reference's.
func (res *result) checkRun(ref reference, s simSpec, r experiments.RunResult) {
	res.Attempted++
	want, ok := ref.Runs[s.label]
	switch {
	case !ok:
		res.fail("%s: no reference fingerprint", s.label)
	case fingerprint(r) != want:
		res.fail("%s: fingerprint %s, reference %s", s.label, fingerprint(r), want)
	}
}

// reference holds the expected fingerprint of every pool personality
// under every model at simInsts, for both sim-* workloads.
type reference struct {
	Insts uint64            `json:"insts"`
	Runs  map[string]string `json:"runs"`
}

// referencePath is where -record-reference writes, relative to the
// root of the checkout.
const referencePath = "perfbench/reference.json"

//go:embed reference.json
var referenceJSON []byte

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("decoding embedded reference: %w", err)
	}
	if ref.Insts != simInsts {
		return ref, fmt.Errorf("reference recorded at %d instructions, runs use %d: re-record it", ref.Insts, simInsts)
	}
	return ref, nil
}

// recordReference simulates the whole pool of both sim-* workloads
// and writes their fingerprints to path.
func recordReference(path string) error {
	ref := reference{Insts: simInsts, Runs: map[string]string{}}
	for _, w := range []simWorkload{simLoads, simStores} {
		for _, s := range specsFor(w.pool()) {
			ref.Runs[s.label] = fingerprint(experiments.Run(s.spec))
		}
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// fingerprint digests a run's simulated output: the cpu.Result, the
// SAMIE and conventional-LSQ statistics and the energy meter. Integer
// counters enter exactly; dynamic energies at the 0.1 nJ the golden
// suite renders, accumulated areas to the unit, other floats to six
// significant digits.
func fingerprint(r experiments.RunResult) string {
	var b strings.Builder
	appendFields(&b, "cpu", reflect.ValueOf(r.CPU))
	appendFields(&b, "samie", reflect.ValueOf(r.SAMIE))
	appendFields(&b, "conv", reflect.ValueOf(r.Conv))
	if r.Meter != nil {
		appendFields(&b, "energy", reflect.ValueOf(*r.Meter))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:12])
}

func appendFields(b *strings.Builder, prefix string, v reflect.Value) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		name := prefix + "." + t.Field(i).Name
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Struct:
			appendFields(b, name, f)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			fmt.Fprintf(b, "%s=%d;", name, f.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			fmt.Fprintf(b, "%s=%d;", name, f.Uint())
		case reflect.Float32, reflect.Float64:
			x := f.Float()
			switch {
			case prefix == "energy" && strings.HasSuffix(name, "Area"):
				fmt.Fprintf(b, "%s=%.0f;", name, x)
			case prefix == "energy":
				fmt.Fprintf(b, "%s=%.1f;", name, x/1e3)
			default:
				fmt.Fprintf(b, "%s=%.6g;", name, x)
			}
		case reflect.Bool:
			fmt.Fprintf(b, "%s=%t;", name, f.Bool())
		default:
			fmt.Fprintf(b, "%s=%v;", name, f)
		}
	}
}
