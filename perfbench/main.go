// Command perfbench is the end-to-end and per-layer benchmark of the DynaQ
// simulator and the dynaqd coordinator. See README.md for the workloads,
// the metrics and how each is measured.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench steady [--runs n] [--seconds s] [--workloads a,b]
//	perfbench calibrate --workload <name> --from <seed> --count <n>
//
// It runs from the repository root and prints, as its last line of
// standard output, one JSON object: whether every output check passed,
// the operations attempted and failed, and the metrics by name and unit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"dynaq/internal/fleet"
)

// clock is the program's audited wall-clock seam; the benchmark reads host
// time only through it, as the simulator's determinism lint requires.
var clock fleet.WallClock

// setupReps is how many times each workload builds its set-up; setup_s is
// the median, since one set-up is too short to time steadily.
const setupReps = 7

// opts is one invocation's parameters.
type opts struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// bench is one benchmark workload; README.md says why each was chosen.
type bench struct {
	name string
	run  func(o opts) (*result, error)
}

var workloads = []bench{
	{"leafspine-packet", runLeafSpine},
	{"fattree-flow", runFatTree},
	{"dynaqd-rack", runRack},
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// problems lists the failed output checks; they go to standard error.
	problems []string
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// fail records a failed output check.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			os.Exit(steadyMain(os.Args[2:]))
		case "calibrate":
			os.Exit(calibrateMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 30, "length of the measured phase in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var w *bench
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	}
	res, err := w.run(opts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", w.name, p)
	}
	for _, k := range sortedKeys(res.Metrics) {
		if v := res.Metrics[k].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", w.name, k)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// sample is what one timed section cost.
type sample struct {
	t0, t1     time.Time
	wall       float64 // seconds
	scaled     float64 // seconds at reference host speed (see hostspeed.go)
	allocBytes float64
	allocObjs  float64
	cpuGC      float64 // GC CPU seconds, as the runtime estimates them
	cpuTotal   float64 // all CPU seconds, as the runtime estimates them
}

// meter times a section and reads the runtime's cumulative allocation and
// CPU-class counters around it.
type meter struct {
	t0   time.Time
	base [4]float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() [4]float64 {
	metrics.Read(runtimeSamples)
	var out [4]float64
	for i, s := range runtimeSamples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

func startMeter() meter { return meter{base: readRuntime(), t0: clock.Now()} }

func (m meter) stop() sample {
	t1 := clock.Now()
	now := readRuntime()
	return sample{
		t0:         m.t0,
		t1:         t1,
		wall:       t1.Sub(m.t0).Seconds(),
		allocBytes: now[0] - m.base[0],
		allocObjs:  now[1] - m.base[1],
		cpuGC:      now[2] - m.base[2],
		cpuTotal:   now[3] - m.base[3],
	}
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// rounds is the per-round record of a measured phase.
type rounds struct {
	samples []sample
}

func (r *rounds) add(s sample) { r.samples = append(r.samples, s) }

func (r *rounds) col(f func(sample) float64) []float64 {
	xs := make([]float64, len(r.samples))
	for i, s := range r.samples {
		xs[i] = f(s)
	}
	return xs
}

// scale sets every round's time at reference host speed from its own
// wall time.
func (r *rounds) scale() {
	for i := range r.samples {
		r.samples[i].scaled = host.scaled(r.samples[i])
	}
}

// runS is the median round's time at reference host speed. Other tenants
// of a shared host slow single rounds by up to a fifth, in episodes of
// seconds; the median of many short rounds passes over them.
func (r *rounds) runS() float64 {
	return median(r.col(func(s sample) float64 { return s.scaled }))
}

// wallS is the median round's wall time as measured.
func (r *rounds) wallS() float64 {
	return median(r.col(func(s sample) float64 { return s.wall }))
}
func (r *rounds) allocMB() float64 {
	return median(r.col(func(s sample) float64 { return s.allocBytes })) / 1e6
}
func (r *rounds) mallocs() float64 {
	return median(r.col(func(s sample) float64 { return s.allocObjs }))
}

// gcShare is the GC's share of all CPU time over the rounds.
func (r *rounds) gcShare() float64 {
	var gc, total float64
	for _, s := range r.samples {
		gc += s.cpuGC
		total += s.cpuTotal
	}
	if total <= 0 {
		return 0
	}
	return gc / total
}

// setEndToEnd reports the end-to-end metrics every workload shares.
// cells and flows are per round.
func setEndToEnd(res *result, setup []sample, rs *rounds, cells, flows float64) {
	runS := rs.runS()
	setupS := make([]float64, len(setup))
	for i, s := range setup {
		setupS[i] = host.scaled(s)
	}
	res.set("setup_s", "s", median(setupS))
	logf("reference kernel: median %.1f ms over %d timings; median round %.3f s as measured, %.3f s scaled", host.refMs(), len(host.marks), rs.wallS(), runS)
	res.set("run_s", "s", runS)
	res.set("cells_per_s", "1/s", cells/runS)
	res.set("flows_per_s", "1/s", flows/runS)
	res.set("alloc_mb", "MB", rs.allocMB())
	res.set("peak_rss_mb", "MB", peakRSSMB())
}

// perLayerNames lists every per-layer metric with its unit; a traced run
// reports each one, as 0 where the workload does not exercise the layer.
var perLayerNames = [][2]string{
	{"sim.events", "count"}, {"sim.events_per_s", "1/s"}, {"sim.cpu_share", "share"}, {"sim.event_ns", "ns"},
	{"sched.cpu_share", "share"}, {"sched.select_ns", "ns"}, {"sched.select_allocs", "count"},
	{"netsim.pkts", "count"}, {"netsim.ns_per_pkt", "ns"}, {"netsim.allocs_per_pkt", "count"},
	{"netsim.cpu_share", "share"}, {"netsim.port_ns", "ns"},
	{"transport.cpu_share", "share"}, {"transport.retransmits", "count"}, {"transport.timeouts", "count"},
	{"buffer.cpu_share", "share"}, {"core.cpu_share", "share"}, {"buffer.drops", "count"},
	{"core.adjustments", "count"}, {"core.process_ns", "ns"},
	{"runtime.gc_cpu_share", "share"}, {"runtime.mallocs", "count"},
	{"flowsim.recomputes", "count"}, {"flowsim.recompute_us", "us"}, {"flowsim.cpu_share", "share"},
	{"scenario.load_ms", "ms"},
	{"server.submit_ms", "ms"}, {"server.queue_wait_ms", "ms"}, {"server.cache_hit_ratio", "share"},
	{"server.cache_cells", "count"}, {"server.cpu_share", "share"}, {"server.job_p50_ms", "ms"},
	{"server.cached_job_p50_ms", "ms"}, {"server.cached_job_p90_ms", "ms"},
	{"fleet.cell_exec_ms", "ms"}, {"telemetry.artifact_write_ms", "ms"}, {"telemetry.artifact_kb", "KB"},
	{"telemetry.cpu_share", "share"},
	{"trace.overhead_pct", "%"},
	{"host.ref_ms", "ms"}, {"host.wall_run_s", "s"},
}

// fillPerLayer gives every per-layer metric the workload did not set the
// value 0, so a traced run always prints the full set.
func fillPerLayer(res *result) {
	for _, nu := range perLayerNames {
		if _, ok := res.Metrics[nu[0]]; !ok {
			res.set(nu[0], nu[1], 0)
		}
	}
}

// setProfileShares reports the CPU share of each program layer from the
// traced run's profile.
func setProfileShares(res *result, st selfTime) {
	for _, layer := range []string{"sim", "sched", "netsim", "transport", "buffer", "core", "flowsim", "server", "telemetry"} {
		res.set(layer+".cpu_share", "share", st.share("dynaq/internal/"+layer))
	}
}

// setHost reports the reference kernel's median time over the run and the
// untraced rounds' median wall time as measured, before scaling.
func setHost(res *result, untraced *rounds) {
	res.set("host.ref_ms", "ms", host.refMs())
	res.set("host.wall_run_s", "s", untraced.wallS())
}

// setOverhead reports how much slower the traced rounds ran than the
// untraced ones of the same run.
func setOverhead(res *result, untraced, traced *rounds) {
	res.set("trace.overhead_pct", "%", (traced.runS()/untraced.runS()-1)*100)
}

// scratchDir makes a fresh directory for run artifacts under .bench_build
// in the working directory, so the benchmark writes nowhere else.
func scratchDir(prefix string) (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", prefix+"-")
}

// logf reports progress on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// gomaxprocs is the CPU count the Go runtime schedules onto.
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
