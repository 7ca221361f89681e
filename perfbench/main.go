// Command perfbench is the repository benchmark. It runs one workload
// against a core.NewVirtualSystem deployment, where every modelled cost
// (image pull, container boot, checkpoint/restore per KiB, link delay)
// is virtual time, so the wall-clock numbers it reports measure the
// program's own code. Modelled downtime is reported separately in
// virtual milliseconds.
//
//	perfbench --workload stream|roam-whole|roam-split|storm --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics (the same names on every workload; the `why` of
// each workload in BENCHMARK.json says what its operation is). With
// --trace 1 it holds the per-layer metrics instead: the benchmark records
// spans around its own calls into each module, times the modules' public
// functions on the workload's deployment and on scratch objects, and reads
// the counters the program already exports. Lines before the last print
// the run context and every workload-specific metric by name.
//
// Every run checks the program's outputs; a violated check makes the run
// report "correct": false and counts against "failed".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark can run.
type workload struct {
	why string
	run func(b *bench) error
}

// workloads maps each workload to why it was chosen (the same text as in
// BENCHMARK.json) and its driver.
//
// BENCHMARK.json gates stream and roam-whole only. roam-split and storm
// stay runnable because they reproduce a defect of the program that makes
// their output checks fail: core's per-station access-port counter
// (from 1) and the agent's chain-port counter (from 1000) share one
// switch port-ID space, so once a station has seen about 1000
// associations a client's veth replaces a live chain or pool port and
// that client's frames stop reaching the server. storm hits it on its
// second wave, roam-split after about 2000 roams. Gate them again once
// the ports come from one allocator per switch.
var workloads = map[string]workload{
	"stream": {
		why: "Dataplane only. op=frame: ops_per_s and allocs on a 64B closed loop (1024 flows, window 256); p50 and tail (p90) one-way from due time at 50k fps open loop in 1 ms bursts",
		run: runStream,
	},
	"roam-whole": {
		why: "Handoffs while 2 clients stream 1k fps CBR; the whole fw->nat->counter chain (2000 NAT flows, ~0.5 MiB) moves. op=roam: Attach to WaitIdle wall; tail=p90",
		run: func(b *bench) error { return runRoam(b, false) },
	},
	"roam-split": {
		why: "Same roams, but only the near-client head moves and the NAT segment stays anchored: segment re-splice without state transfer. op=roam; tail=p90",
		run: func(b *bench) error { return runRoam(b, true) },
	},
	"storm": {
		why: "512 counter chains attached via spec+reconcile (cold) hand off st-a<->st-b in waves. op=handoff: dispatch to its journal event, wall; tail=p90; ops_per_s per wave",
		run: runStorm,
	},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's state: its inputs, its span log (nil when untraced),
// the checks it failed and the metrics it measured.
type bench struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	rng      *rand.Rand
	spans    *spanLog

	attempted, failed int64
	problems          []string

	e2e    map[string]metric // end-to-end, printed as the result with --trace 0
	layer  map[string]metric // per-layer, printed as the result with --trace 1
	info   []string          // workload-specific metrics, printed before the result
	infoAt map[string]int    // index into info by metric name
}

// check records a violated output check; it returns ok.
func (b *bench) check(ok bool, format string, args ...any) bool {
	if !ok {
		if len(b.problems) < 20 {
			b.problems = append(b.problems, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// named records a workload-specific metric under its full name (a later
// value replaces an earlier one). It is printed, not gated: the gated
// metrics carry the same names on every workload.
func (b *bench) named(name string, v float64, unit string) {
	line := fmt.Sprintf("%-40s %14.4f %s", name, v, unit)
	if i, ok := b.infoAt[name]; ok {
		b.info[i] = line
		return
	}
	b.infoAt[name] = len(b.info)
	b.info = append(b.info, line)
}

func (b *bench) setE2E(name string, v float64, unit string)   { b.e2e[name] = metric{v, unit} }
func (b *bench) setLayer(name string, v float64, unit string) { b.layer[name] = metric{v, unit} }

// endToEnd lists the gated metrics every workload reports with --trace 0.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"allocs_per_op", "count"},
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement time")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed N --seconds S --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	b := &bench{
		workload: *name,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		traced:   *traceFlag == 1,
		rng:      rand.New(rand.NewSource(*seed)),
		e2e:      map[string]metric{},
		layer:    map[string]metric{},
		infoAt:   map[string]int{},
	}
	if b.traced {
		b.spans = newSpanLog(fmt.Sprintf("%s-%d-%d", *name, *seed, time.Now().UnixNano()))
	}
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%d cpus=%d gomaxprocs=%d go=%s\n",
		*name, *seed, *seconds, *traceFlag, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("why: %s\n", w.why)

	if err := w.run(b); err != nil {
		for _, p := range b.problems {
			fmt.Fprintln(os.Stderr, "check failed:", p)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, line := range b.info {
		fmt.Println(line)
	}
	for _, p := range b.problems {
		fmt.Println("CHECK FAILED:", p)
	}

	res := result{
		Correct:   len(b.problems) == 0 && b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.e2e,
	}
	if b.traced {
		b.finishTrace()
		res.Metrics = b.layer
		for _, m := range perLayer {
			if _, ok := b.layer[m.name]; !ok {
				b.layer[m.name] = metric{0, m.unit}
			}
		}
	} else {
		for _, m := range endToEnd {
			if _, ok := b.e2e[m.name]; !ok {
				fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *name, m.name)
				os.Exit(1)
			}
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Metrics[name] = metric{0, m.Unit}
			res.Correct = false
			fmt.Println("CHECK FAILED: not measured:", name)
		}
	}
	if res.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted nothing\n", *name)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// A run builds its deployment at least minSetups times and until the
// builds have taken setupTime in all: setup_s is the median, so one slow
// build (cold heap, lazy init) does not decide it, and quick set-ups are
// repeated enough to be steady.
const (
	minSetups = 3
	setupTime = time.Second
)

// setUp builds the deployment repeatedly, keeps the last one and records
// the median build time as setup_s.
func setUp[T any](b *bench, build func() (T, error), teardown func(T)) (T, error) {
	var (
		times []float64
		spent time.Duration
	)
	for {
		start := time.Now()
		d, err := build()
		if err != nil {
			return d, err
		}
		el := time.Since(start)
		times = append(times, el.Seconds())
		spent += el
		if len(times) >= minSetups && spent >= setupTime {
			b.setE2E("setup_s", median(times), "s")
			return d, nil
		}
		teardown(d)
		runtime.GC()
	}
}

// --- statistics ---------------------------------------------------------

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// --- process counters ---------------------------------------------------

// procSample reads the runtime counters the benchmark derives per-op
// costs from. Unlike runtime.ReadMemStats it does not stop the world.
type procSample struct {
	allocs, bytes   uint64
	gcCPU, totalCPU float64
}

var procMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readProc() procSample {
	s := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return procSample{
		allocs:   s[0].Value.Uint64(),
		bytes:    s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
	}
}

// recordProcess stores process.gc_cpu_fraction and process.bytes_per_op
// for the interval between two samples covering ops operations.
func (b *bench) recordProcess(from, to procSample, ops float64) {
	if cpu := to.totalCPU - from.totalCPU; cpu > 0 {
		b.setLayer("process.gc_cpu_fraction", (to.gcCPU-from.gcCPU)/cpu, "ratio")
	}
	if ops > 0 {
		b.setLayer("process.bytes_per_op", float64(to.bytes-from.bytes)/ops, "B")
	}
}
