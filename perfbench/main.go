// Command perfbench is the repository's benchmark. One invocation
// drives one named workload for a fixed host-time budget, checks every
// output it receives, and prints one JSON result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics BENCHMARK.json
// lists; with -trace 1 a separate, instrumented run reports the
// per-layer metrics instead. Every timing is host time; simulated
// statistics are checked for identity and reported only as per-layer
// context. LEDGER.md documents the workloads, the layer map and the
// recorded numbers.
//
// Run it from the root of a checkout through run.sh, which builds the
// benchmark and the samie-serve replica binary first:
//
//	bash perfbench/run.sh --workload sim-loads --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed whose fabric sweep is exactly the golden
// suite matrix (ammp, gzip, mcf, swim at 25k instructions).
const defaultSeed = 1

// options are the command-line inputs every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// buildDir holds the replica binary and every file a run writes.
	buildDir string
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options) (*result, error){
	"sim-loads":  func(o options) (*result, error) { return runSim(simLoads, o) },
	"sim-stores": func(o options) (*result, error) { return runSim(simStores, o) },
	"fabric":     runFabric,
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", defaultSeed, "input seed: which personalities are drawn, their order, and where reads go")
	seconds := flag.Float64("seconds", 15, "host seconds the timed phase measures")
	traceFlag := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs instrumented and reports per-layer metrics")
	buildDir := flag.String("build-dir", ".bench_build", "directory holding the samie-serve binary and run files")
	record := flag.Bool("record-reference", false, "re-record perfbench/reference.json from the current simulator and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run here")
	flag.Parse()

	if *record {
		if err := recordReference(referencePath); err != nil {
			fatal(err)
		}
		return
	}
	drive, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", ")))
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fatal(fmt.Errorf("need -seconds > 0 and -trace 0 or 1"))
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	res, err := drive(options{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, buildDir: *buildDir})
	if err != nil {
		pprof.StopCPUProfile()
		fatal(err)
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records a metric, taking its unit from the catalog so a name can
// never be reported with two units.
func (r *result) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("perfbench: metric " + name + " is not in the catalog")
	}
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed operation and says why on stderr; a failure
// never stops the run.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// endToEnd are the metrics a -trace 0 run reports, on every workload.
var endToEnd = []string{
	"insts_per_s", "suite_s", "read_p50_ms", "setup_s", "peak_rss_mb",
}

// perLayer are the metrics a -trace 1 run reports, on every workload.
// A layer the workload bypasses reports 0: it did no work there.
var perLayer = []string{
	"trace.slab_build_s", "trace.slab_mb", "trace.next_ns_per_inst", "trace.self_share",
	"lsq.fwd_calls_per_load", "lsq.fwd_ok_ratio", "lsq.fwd_ns", "lsq.fwd_share", "lsq.addr_ready_ns",
	"lsq.buffered_ratio", "lsq.tick_ns", "lsq.commit_ns", "lsq.dispatch_refused", "lsq.self_share",
	"core.placed_shared_ratio", "core.buffered", "core.place_failures", "core.way_known_hits",
	"core.mean_shared_occ", "core.ab_empty_frac",
	"cpu.ns_per_cycle", "cpu.self_ns_per_cycle", "cpu.self_share", "cpu.new_share", "cpu.cycles", "cpu.ipc", "cpu.flushes_per_kinst",
	"cpu.cpi_wait_issue", "cpu.cpi_wait_exec", "cpu.cpi_load_readybit", "cpu.cpi_load_noport",
	"cpu.cpi_load_data", "cpu.cpi_store_wait", "cpu.cpi_unplaced", "cpu.cpi_other", "cpu.cpi_fetch_branch",
	"mem.l1d_miss_rate", "mem.l2_per_kinst", "tlb.dtlb_miss_rate",
	"experiments.key_us", "engine.hit_ratio", "engine.executed",
	"store.mem_hits", "store.disk_hits", "store.peer_hits",
	"phase.queue_wait_ms", "phase.persist_ms", "phase.disk_ms", "phase.peer_ms",
	"server.throttled", "server.requests_served", "server.suite_first_event_ms", "read_p99_ms", "reads_per_s",
	"cluster.rounds", "cluster.resumes", "cluster.throttle_waits", "cluster.shard_skew",
	"wire.suite.rpc_ms_p50", "wire.suite.rpc_ms_p99", "wire.runs.rpc_ms_p50", "wire.runs.rpc_ms_p99",
	"proc.cpu_util", "bench.trace_overhead_ratio", "bench.accounted_ratio", "bench.timer_ns_per_call", "bench.error_rate",
}

// metricUnits is the unit of every metric the benchmark can report.
var metricUnits = map[string]string{
	"insts_per_s": "1/s", "suite_s": "s", "read_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
	"read_p99_ms": "ms", "reads_per_s": "1/s",

	"trace.slab_build_s": "s", "trace.slab_mb": "MB", "trace.next_ns_per_inst": "ns", "trace.self_share": "ratio",
	"lsq.fwd_calls_per_load": "ratio", "lsq.fwd_ok_ratio": "ratio", "lsq.fwd_ns": "ns", "lsq.fwd_share": "ratio",
	"lsq.addr_ready_ns": "ns", "lsq.buffered_ratio": "ratio", "lsq.tick_ns": "ns", "lsq.commit_ns": "ns",
	"lsq.dispatch_refused": "1/kinst", "lsq.self_share": "ratio",
	"core.placed_shared_ratio": "ratio", "core.buffered": "1/kinst", "core.place_failures": "1/kinst",
	"core.way_known_hits": "1/kinst", "core.mean_shared_occ": "entries", "core.ab_empty_frac": "ratio",
	"cpu.ns_per_cycle": "ns", "cpu.self_ns_per_cycle": "ns", "cpu.self_share": "ratio", "cpu.new_share": "ratio", "cpu.cycles": "count",
	"cpu.ipc": "inst/cycle", "cpu.flushes_per_kinst": "1/kinst",
	"cpu.cpi_wait_issue": "cycles/inst", "cpu.cpi_wait_exec": "cycles/inst", "cpu.cpi_load_readybit": "cycles/inst",
	"cpu.cpi_load_noport": "cycles/inst", "cpu.cpi_load_data": "cycles/inst", "cpu.cpi_store_wait": "cycles/inst",
	"cpu.cpi_unplaced": "cycles/inst", "cpu.cpi_other": "cycles/inst", "cpu.cpi_fetch_branch": "cycles/inst",
	"mem.l1d_miss_rate": "ratio", "mem.l2_per_kinst": "1/kinst", "tlb.dtlb_miss_rate": "ratio",
	"experiments.key_us": "us", "engine.hit_ratio": "ratio", "engine.executed": "count",
	"store.mem_hits": "count", "store.disk_hits": "count", "store.peer_hits": "count",
	"phase.queue_wait_ms": "ms", "phase.persist_ms": "ms", "phase.disk_ms": "ms", "phase.peer_ms": "ms",
	"server.throttled": "count", "server.requests_served": "count", "server.suite_first_event_ms": "ms",
	"cluster.rounds": "count", "cluster.resumes": "count", "cluster.throttle_waits": "count", "cluster.shard_skew": "ratio",
	"wire.suite.rpc_ms_p50": "ms", "wire.suite.rpc_ms_p99": "ms", "wire.runs.rpc_ms_p50": "ms", "wire.runs.rpc_ms_p99": "ms",
	"proc.cpu_util": "ratio", "bench.trace_overhead_ratio": "ratio", "bench.accounted_ratio": "ratio",
	"bench.timer_ns_per_call": "ns", "bench.error_rate": "ratio",
}

// finishLayers completes a traced run's metrics: a per-layer metric
// the workload never set is a layer it bypasses, so it reports zero
// work.
func (r *result) finishLayers(start time.Time) {
	for _, name := range perLayer {
		if _, ok := r.Metrics[name]; !ok {
			r.set(name, 0)
		}
	}
	r.set("proc.cpu_util", cpuSeconds()/time.Since(start).Seconds())
	if r.Attempted > 0 {
		r.set("bench.error_rate", float64(r.Failed)/float64(r.Attempted))
	}
}

// cpuSeconds is the CPU time of this process plus every child it has
// waited for.
func cpuSeconds() float64 {
	var total float64
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if syscall.Getrusage(who, &ru) == nil {
			total += tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		}
	}
	return total
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// selfPeakRSSMB is this process's peak resident set (VmHWM).
func selfPeakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
