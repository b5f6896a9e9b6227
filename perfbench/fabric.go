package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"samielsq/internal/experiments"
	"samielsq/internal/obs"
	"samielsq/pkg/client"
	"samielsq/pkg/cluster"
)

// fabricInsts is the sweep's measured budget, the golden suite's.
const fabricInsts = 25_000

// fabricStrata are the pools the fabric sweep draws its four
// benchmarks from, one from each. The first entry of each is the
// golden suite's; the others cost within a few percent of it to
// sweep (host time of one single-worker suite at fabricInsts), so
// every seed's cold sweep is the same amount of simulation work.
var fabricStrata = [][]string{
	{"ammp", "applu"},
	{"gzip", "wupwise", "mesa", "eon", "apsi", "crafty", "facerec", "vpr"},
	{"mcf", "perlbmk", "art"},
	{"swim", "parser", "sixtrack"},
}

// fabricBenchmarks draws the seed's sweep; defaultSeed gives the
// golden matrix.
func fabricBenchmarks(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, len(fabricStrata))
	for i, s := range fabricStrata {
		out[i] = s[0]
		if seed != defaultSeed {
			out[i] = s[rng.Intn(len(s))]
		}
	}
	return out
}

// goldenPath is the golden suite rendering, relative to the checkout.
const goldenPath = "internal/experiments/testdata/golden_suite.txt"

// coldRounds is how many fresh fleets regenerate the sweep in an
// untraced run; a traced run alternates untraced and traced fleets.
const coldRounds = 5

// extraBoots is how many more fleets only boot and stop: one boot's
// time varies by a third from run to run, so set-up needs more samples
// than the sweeps provide.
const extraBoots = 8

// replica is one samie-serve process.
type replica struct {
	addr, dir, peer, log string
	cmd                  *exec.Cmd
	done                 chan struct{}
}

func (r *replica) url() string { return "http://" + r.addr }

// start launches the replica; Pdeathsig makes sure it cannot outlive
// the benchmark.
func (r *replica) start(bin string) error {
	logf, err := os.OpenFile(r.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close()
	r.cmd = exec.Command(bin, "-addr", r.addr, "-workers", "1", "-cachedir", r.dir, "-peers", "http://"+r.peer)
	r.cmd.Stdout, r.cmd.Stderr = logf, logf
	r.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := r.cmd.Start(); err != nil {
		return fmt.Errorf("starting samie-serve: %w", err)
	}
	r.done = make(chan struct{})
	go func() {
		_ = r.cmd.Wait() // the exit status is read from ProcessState
		close(r.done)
	}()
	return nil
}

// stop drains the replica with SIGTERM and waits for it to exit,
// killing it if the drain takes too long.
func (r *replica) stop() {
	if r.cmd == nil || r.cmd.Process == nil {
		return
	}
	_ = r.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-r.done:
	case <-time.After(20 * time.Second):
		_ = r.cmd.Process.Kill()
		<-r.done
	}
}

// peakRSSMB is the replica's peak resident set; valid after stop.
func (r *replica) peakRSSMB() float64 {
	if r.cmd == nil || r.cmd.ProcessState == nil {
		return 0
	}
	ru, ok := r.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// waitHealthy polls /healthz until the replica answers 200.
func (r *replica) waitHealthy(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url()+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-r.done:
			return fmt.Errorf("samie-serve on %s exited during start-up (log %s)", r.addr, r.log)
		case <-ctx.Done():
			return fmt.Errorf("samie-serve on %s not healthy: %w", r.addr, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// fleetAddrs returns the loopback addresses of a fleet. Rendezvous
// sharding hashes replica addresses with the keys, so the ports are a
// function of the seed and the fleet: the split of the sweep between
// the replicas is then part of the input, not chance. Ports something
// else holds are replaced by free ones the kernel picks.
func fleetAddrs(seed int64, fleet int) ([]string, error) {
	base := 20000 + int(uint64(seed)%1000)*8 + 2*fleet
	var out []string
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+i))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: port %d busy, using a free one: %v\n", base+i, err)
			if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
				return nil, err
			}
		}
		lns = append(lns, ln)
		out = append(out, ln.Addr().String())
	}
	return out, nil
}

// fleet is the two peered replicas.
type fleet struct {
	reps [2]*replica
	all  []*replica // every process started, for peak RSS
}

func (f *fleet) urls() []string { return []string{f.reps[0].url(), f.reps[1].url()} }

// boot starts both replicas on addrs with fresh cache directories
// under dir and returns the time until both are healthy.
func (f *fleet) boot(ctx context.Context, bin, dir string, addrs []string) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	for i := range f.reps {
		f.reps[i] = &replica{addr: addrs[i], peer: addrs[1-i],
			dir: filepath.Join(dir, fmt.Sprintf("cache%d", i)), log: filepath.Join(dir, fmt.Sprintf("replica%d.log", i))}
	}
	start := time.Now()
	for _, r := range f.reps {
		f.all = append(f.all, r)
		if err := r.start(bin); err != nil {
			return 0, err
		}
	}
	for _, r := range f.reps {
		if err := r.waitHealthy(ctx); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds(), nil
}

// restart stops replica i and starts it again on the same cache
// directory and address, returning the time until it is healthy.
func (f *fleet) restart(ctx context.Context, bin string, i int) (float64, error) {
	old := f.reps[i]
	old.stop()
	r := &replica{addr: old.addr, dir: old.dir, peer: old.peer, log: old.log}
	f.reps[i] = r
	f.all = append(f.all, r)
	start := time.Now()
	if err := r.start(bin); err != nil {
		return 0, err
	}
	if err := r.waitHealthy(ctx); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

func (f *fleet) stop() {
	for _, r := range f.reps {
		if r != nil {
			r.stop()
		}
	}
}

// payload is the deterministic part of a run response: what a read
// must return byte for byte, whichever tier serves it.
func payload(r client.RunResponse) ([]byte, error) {
	return json.Marshal(struct {
		Key         string
		CPU         any
		SAMIE       any
		Conv        any
		Meter       any
		LSQEnergyNJ float64
	}{r.Key, r.CPU, r.SAMIE, r.Conv, r.Meter, r.LSQEnergyNJ})
}

// fabricRun holds one fabric invocation's state.
type fabricRun struct {
	o          options
	bin, dir   string
	benchmarks []string
	specs      []experiments.RunSpec
	golden     []byte // expected sweep rendering; nil until known
	res        *result
	rec        *recorder
	wire       *wireTimer
	fleets     []*fleet
}

// runFabric drives the fabric workload: cold sweeps through
// pkg/cluster on fresh fleets, then one replica restarts and a
// closed-loop client reads the sweep's results back.
func runFabric(o options) (*result, error) {
	start := time.Now()
	ctx := context.Background()
	f := &fabricRun{o: o, res: &result{}, rec: newRecorder(),
		bin:        filepath.Join(o.buildDir, "bin", "samie-serve"),
		dir:        filepath.Join(o.buildDir, "fabric", fmt.Sprint(os.Getpid())),
		benchmarks: fabricBenchmarks(o.seed)}
	f.wire = newWireTimer(f.rec)
	f.specs = experiments.SuiteSpecs(f.benchmarks, fabricInsts)
	if _, err := os.Stat(f.bin); err != nil {
		return nil, fmt.Errorf("replica binary: %w (build it with perfbench/run.sh)", err)
	}
	if o.seed == defaultSeed {
		g, err := os.ReadFile(goldenPath)
		if err != nil {
			return nil, fmt.Errorf("reading the golden suite: %w", err)
		}
		f.golden = g
	}
	defer os.RemoveAll(f.dir)
	defer func() {
		for _, fl := range f.fleets {
			fl.stop()
		}
	}()

	rounds := coldRounds
	if o.trace {
		rounds = 4
	}
	var setups, plainSuites, tracedSuites []float64
	for i := 0; i < extraBoots; i++ {
		addrs, err := fleetAddrs(o.seed, 0)
		if err != nil {
			return nil, err
		}
		fl := &fleet{}
		boot, err := fl.boot(ctx, f.bin, filepath.Join(f.dir, "boot", fmt.Sprint(i)), addrs)
		fl.stop()
		if err != nil {
			return nil, err
		}
		setups = append(setups, boot)
	}
	var outputs []string
	var fl *fleet
	for i := 0; i < rounds; i++ {
		if fl != nil {
			fl.stop()
		}
		fl = &fleet{}
		f.fleets = append(f.fleets, fl)
		addrs, err := fleetAddrs(o.seed, i)
		if err != nil {
			return nil, err
		}
		boot, err := fl.boot(ctx, f.bin, filepath.Join(f.dir, fmt.Sprint(i)), addrs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, boot)
		traced := o.trace && i%2 == 1
		d, out, err := f.sweep(ctx, fl, traced, i)
		if err != nil {
			return nil, err
		}
		outputs = append(outputs, out)
		if traced {
			tracedSuites = append(tracedSuites, d)
		} else {
			plainSuites = append(plainSuites, d)
		}
	}

	phase1, err := f.collect(ctx, fl)
	if err != nil {
		return nil, err
	}
	before, err := replicaStats(ctx, fl)
	if err != nil {
		return nil, err
	}
	boot, err := fl.restart(ctx, f.bin, 1)
	if err != nil {
		return nil, err
	}
	setups = append(setups, boot)
	before[1] = client.StatsResponse{} // the restarted replica starts from zero

	reads := f.readLoop(ctx, fl, phase1)
	after, err := replicaStats(ctx, fl)
	if err != nil {
		return nil, err
	}
	f.checkReadTiers(before, after)
	fl.stop()
	// Each fleet's larger replica, as a median over the fleets: the
	// garbage collector's timing moves one process's peak by several
	// percent.
	var rss []float64
	for _, fl := range f.fleets {
		var peak float64
		for _, r := range fl.all {
			peak = max(peak, r.peakRSSMB())
		}
		rss = append(rss, peak)
	}

	// Outside every timed phase: on a seed without a golden rendering,
	// render the same sweep locally and hold every cold sweep to it.
	if f.golden == nil {
		f.golden = []byte(experiments.NewBatch(runtime.NumCPU()).Suite(f.benchmarks, fabricInsts).String())
	}
	f.res.checkRenderings(outputs, string(f.golden))

	res := f.res
	if o.trace {
		var agg simAgg
		for _, s := range f.specs {
			r := phase1[experiments.Key(s)].Result()
			r.Spec = s
			agg.add(r)
		}
		agg.report(res)
		f.wire.report(res)
		reportStats(res, before, after)
		// The read tail and rate sit with the per-layer metrics: a
		// sub-millisecond read's p99, and so the closed loop's rate,
		// follow how often the host preempts it, and spread far wider
		// from run to run than an end-to-end bound could hold.
		_, p99, rate := windowed(reads)
		res.set("read_p99_ms", p99)
		res.set("reads_per_s", rate)
		res.set("experiments.key_us", keyMicros(f.specs))
		res.set("bench.trace_overhead_ratio", ratio(median(tracedSuites), median(plainSuites)))
		res.finishLayers(start)
		return res, f.rec.write(spanDir(o), fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	}
	var insts uint64
	for _, s := range f.specs {
		n := experiments.Normalize(s)
		insts += n.Insts + n.Warmup
	}
	res.set("insts_per_s", float64(insts)/median(plainSuites))
	res.set("suite_s", median(plainSuites))
	p50, _, _ := windowed(reads)
	res.set("read_p50_ms", p50)
	res.set("setup_s", median(setups))
	res.set("peak_rss_mb", median(rss))
	return res, nil
}

// sweep regenerates the sweep cold through pkg/cluster on fl, checks
// that every spec ran exactly once, and returns the sweep's duration
// and rendering.
func (f *fabricRun) sweep(ctx context.Context, fl *fleet, traced bool, round int) (float64, string, error) {
	var opts []cluster.Option
	var root int64
	if traced {
		opts = append(opts, cluster.WithHTTPClient(&http.Client{Transport: f.wire}))
		root = f.rec.newRun()
	}
	cl, err := cluster.New(fl.urls(), opts...)
	if err != nil {
		return 0, "", err
	}
	sweepCtx := ctx
	if traced {
		id := f.rec.begin(root, 0, "sweep", fmt.Sprint(round))
		defer f.rec.end(id)
		sweepCtx = withSpan(ctx, root, id)
	}
	start := time.Now()
	sr, err := cl.Suite(sweepCtx, f.benchmarks, fabricInsts, nil)
	end := time.Now()
	f.res.Attempted += int64(len(f.specs))
	if err != nil {
		f.res.Failed += int64(len(f.specs)) - 1
		f.res.fail("cold sweep %d: %v", round, err)
		return end.Sub(start).Seconds(), "", nil
	}

	stats, err := replicaStats(ctx, fl)
	if err != nil {
		return 0, "", err
	}
	var executed, lo, hi int64
	lo = -1
	for _, st := range stats {
		executed += st.Engine.Executed
		hi = max(hi, st.Engine.Executed)
		if lo < 0 || st.Engine.Executed < lo {
			lo = st.Engine.Executed
		}
	}
	f.res.Attempted++
	if executed != int64(len(f.specs)) {
		f.res.fail("cold sweep %d: %d simulations executed for %d distinct specs", round, executed, len(f.specs))
	}
	if f.o.trace {
		sw := cl.SweepStats()
		f.res.set("cluster.rounds", float64(sw.Rounds))
		f.res.set("cluster.resumes", float64(sw.Resumes))
		f.res.set("cluster.throttle_waits", float64(sw.ThrottleWaits))
		f.res.set("cluster.shard_skew", ratio(float64(hi), float64(lo)))
		f.res.set("engine.executed", float64(executed))
		var phases obs.PhaseStats = map[string]obs.HistSnapshot{}
		for _, st := range stats {
			for name, h := range st.RunPhases {
				agg := phases[name]
				agg.Add(h)
				phases[name] = agg
			}
		}
		f.res.set("phase.queue_wait_ms", 1000*phases[obs.PhaseQueueWait.String()].Quantile(0.5))
		f.res.set("phase.persist_ms", 1000*phases[obs.PhasePersist.String()].Quantile(0.5))
	}
	return end.Sub(start).Seconds(), sr.String(), nil
}

// collect fetches every sweep result back from the warm fleet, where
// each is the memoized phase-1 simulation, keyed by canonical key.
func (f *fabricRun) collect(ctx context.Context, fl *fleet) (map[string]client.RunResponse, error) {
	cl, err := cluster.New(fl.urls())
	if err != nil {
		return nil, err
	}
	out, err := cl.RunSpecs(ctx, f.specs, nil)
	if err != nil {
		return nil, fmt.Errorf("collecting the sweep's results: %w", err)
	}
	return out, nil
}

func replicaStats(ctx context.Context, fl *fleet) ([2]client.StatsResponse, error) {
	var out [2]client.StatsResponse
	for i, r := range fl.reps {
		st, err := client.New(r.url()).Stats(ctx)
		if err != nil {
			return out, fmt.Errorf("stats of %s: %w", r.addr, err)
		}
		out[i] = st
	}
	return out, nil
}

// failedReadMS is the latency a failed or refused read counts as:
// beyond any limit a percentile could be held to.
const failedReadMS = 1e9

// readLoop runs phase 2's single closed-loop client for the budget. It
// sends POST /v1/runs for a seed-chosen sweep spec to a seed-chosen
// replica and checks the body against the phase-1 result. Reads are
// grouped into one-second windows by completion time. One client, not
// one per CPU, leaves the second of two CPUs to the replicas: with two
// clients the read phase oversubscribed a 2-vCPU host and its figures
// spread twice as wide from run to run.
func (f *fabricRun) readLoop(ctx context.Context, fl *fleet, phase1 map[string]client.RunResponse) []window {
	want := map[string][]byte{}
	for key, rr := range phase1 {
		p, err := payload(rr)
		if err != nil {
			panic(err) // a decoded response always re-encodes
		}
		want[key] = p
	}
	opts := []client.Option{client.WithTransportRetries(-1)}
	if f.o.trace {
		opts = append(opts, client.WithHTTPClient(&http.Client{Transport: f.wire}))
	}
	clients := []*client.Client{client.New(fl.reps[0].url(), opts...), client.New(fl.reps[1].url(), opts...)}
	budget := time.Duration(f.o.seconds * float64(time.Second))
	nwin := max(1, int(budget/time.Second))
	winLen := budget / time.Duration(nwin)
	ws := make([]window, nwin)
	for i := range ws {
		ws[i].secs = winLen.Seconds()
	}
	rng := rand.New(rand.NewSource(f.o.seed))
	logged := 0
	start := time.Now()
	for time.Since(start) < budget {
		spec := f.specs[rng.Intn(len(f.specs))]
		rep := rng.Intn(len(clients))
		key := experiments.Key(spec)
		rctx, span := ctx, int64(0)
		if f.o.trace {
			run := f.rec.newRun()
			span = f.rec.begin(run, 0, "read", key)
			rctx = withSpan(ctx, run, span)
		}
		t := time.Now()
		rr, err := clients[rep].Run(rctx, client.RequestFor(spec))
		end := time.Now()
		if span != 0 {
			f.rec.end(span)
		}
		if err == nil {
			err = checkRead(want[key], rr)
		}
		lat := ms(end.Sub(t))
		f.res.Attempted++
		if err != nil {
			lat = failedReadMS
			f.res.Failed++
			if logged < 3 {
				logged++
				fmt.Fprintf(os.Stderr, "perfbench: check failed: read %s from replica %d: %v\n", key, rep, err)
			}
		}
		if i := int(end.Sub(start) / winLen); i < nwin {
			ws[i].latMS = append(ws[i].latMS, lat)
			if err == nil {
				ws[i].ok++
			}
		}
	}
	return ws
}

// checkRead compares a read's body with the phase-1 result.
func checkRead(want []byte, rr client.RunResponse) error {
	got, err := payload(rr)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return errors.New("body differs from the phase-1 result")
	}
	return nil
}

// checkRenderings counts one check per cold sweep, and a failure for
// each whose rendering is not the reference.
func (res *result) checkRenderings(outputs []string, want string) {
	for i, out := range outputs {
		res.Attempted++
		if out != want {
			res.fail("cold sweep %d: rendering differs from the reference", i)
		}
	}
}

// checkReadTiers holds phase 2 to exactly-once accounting: reads are
// served by the memory, disk and peer tiers and never re-simulate.
func (f *fabricRun) checkReadTiers(before, after [2]client.StatsResponse) {
	f.res.Attempted++
	var executed int64
	for i := range after {
		executed += after[i].Engine.Executed - before[i].Engine.Executed
	}
	if executed != 0 {
		f.res.fail("phase 2: %d reads re-simulated instead of hitting a tier", executed)
	}
}

// reportStats sets the engine, store, phase and server metrics of the
// read phase from the replicas' /v1/stats before and after it.
func reportStats(res *result, before, after [2]client.StatsResponse) {
	var reqs, hits, memHits, diskHits, peerHits, throttled, served int64
	disk, peer := obs.HistSnapshot{}, obs.HistSnapshot{}
	for i := range after {
		a, b := after[i], before[i]
		reqs += a.Engine.Requests - b.Engine.Requests
		hits += a.Engine.Hits - b.Engine.Hits
		memHits += a.Store.Mem.Hits - b.Store.Mem.Hits
		diskHits += a.Store.Disk.Hits - b.Store.Disk.Hits
		peerHits += a.Store.Peer.Hits - b.Store.Peer.Hits
		throttled += a.Throttled
		served += a.RequestsServed
		disk.Add(histDelta(a.RunPhases[obs.PhaseDiskTier.String()], b.RunPhases[obs.PhaseDiskTier.String()]))
		peer.Add(histDelta(a.RunPhases[obs.PhasePeerTier.String()], b.RunPhases[obs.PhasePeerTier.String()]))
	}
	res.set("engine.hit_ratio", ratio(float64(hits), float64(reqs)))
	res.set("store.mem_hits", float64(memHits))
	res.set("store.disk_hits", float64(diskHits))
	res.set("store.peer_hits", float64(peerHits))
	res.set("phase.disk_ms", 1000*disk.Quantile(0.5))
	res.set("phase.peer_ms", 1000*peer.Quantile(0.5))
	res.set("server.throttled", float64(throttled))
	res.set("server.requests_served", float64(served))
}

// histDelta is the histogram of the observations a made after b.
func histDelta(a, b obs.HistSnapshot) obs.HistSnapshot {
	if b.Count == 0 {
		return a
	}
	d := obs.HistSnapshot{Bounds: a.Bounds, Sum: a.Sum - b.Sum, Count: a.Count - b.Count}
	for i, c := range a.Counts {
		if i < len(b.Counts) {
			c -= b.Counts[i]
		}
		d.Counts = append(d.Counts, c)
	}
	return d
}

func spanDir(o options) string { return filepath.Join(o.buildDir, "spans") }
