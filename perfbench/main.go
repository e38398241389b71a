// Command perfbench is the repository's benchmark: it drives the
// simulator's layers from outside, through their public functions,
// checks every output, and prints each metric by name with its unit.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see metrics.json for why each exists):
//
//	suite             every registered experiment through exp.Runner
//	hammer-mitigated  double-sided hammering under each observing defence
//	hammer-bare       the same hammering with no or passive defence
//	traffic-rw        read/write traffic through MemorySystem.Access
//
// Each workload sets up several times (setup_s is the median), then
// repeats fixed passes of work until --seconds have been measured
// (the suite's single pass is longer than that). Every pass restarts
// from the same snapshot, so each unit — an experiment, a hammer leg
// or a traffic phase — must produce the same digest of simulated
// statistics on every pass, and at the pinned seeds (golden.json) the
// digests must equal the pinned ones. Unpinned seeds print their
// digests so two versions of the program can be compared. A mismatch
// or a tripped vacuity guard fails the unit and the command exits 1.
//
// With --trace 1 the run times half its passes untraced and half with
// spans recorded around each call into a layer; the per-layer metrics
// come from the traced half and the spans are written under
// .bench_build/perfbench-traces/. The last line of standard output is
// one JSON object: correct, attempted, failed and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// A unitResult is one checked unit's outcome in one pass.
type unitResult struct {
	unit   string
	digest string
	err    error // a tripped vacuity guard or a failed call
}

// A bench is one workload, set up and then run pass by pass.
type bench interface {
	// pass runs the timed phase once. It returns the host time and
	// heap bytes of the timed parts only (checks are excluded) and
	// each unit's result.
	pass(tr *tracer) (meter, []unitResult)
	// layerMetrics derives the per-layer metrics from a traced run:
	// setup spans, the traced passes' spans and their count.
	layerMetrics(setup, passes []span, nPasses int) map[string]float64
	// simWork is one pass's simulated device activations and
	// controller accesses.
	simWork() (acts, accesses int64)
}

type spec struct {
	name      string
	setupReps int
	// maxPasses caps the timed passes; 0 means as many as --seconds
	// allow.
	maxPasses int
	setup     func(seed uint64, tr *tracer, rep int) (bench, error)
}

// The suite's set-up only lists the registry, microseconds of work, so
// it repeats often enough for a steady median; its one pass already
// outlasts --seconds.
var specs = []spec{
	{name: "suite", setupReps: 1001, maxPasses: 1, setup: setupSuite},
	{name: "hammer-mitigated", setupReps: 5, setup: setupHammer(mitigatedLegs)},
	{name: "hammer-bare", setupReps: 5, setup: setupHammer(bareLegs)},
	{name: "traffic-rw", setupReps: 5, setup: setupTraffic},
}

//go:embed golden.json
var goldenJSON []byte

// golden maps workload -> seed -> unit -> digest.
func golden() (map[string]map[string]map[string]string, error) {
	var g map[string]map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

//go:embed metrics.json
var metricsJSON []byte

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// metricDefs returns the end-to-end and per-layer metric definitions.
func metricDefs() (e2e, perLayer []metricDef, err error) {
	var m struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(metricsJSON, &m); err != nil {
		return nil, nil, fmt.Errorf("metrics.json: %w", err)
	}
	return m.EndToEnd, m.PerLayer, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	rep, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

func run(args []string) (report, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed")
	secs := fs.Float64("seconds", 10, "seconds of timed passes")
	trace := fs.Int("trace", 0, "1: record spans and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return report{}, err
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		return report{}, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	var sp *spec
	for i := range specs {
		if specs[i].name == *name {
			sp = &specs[i]
		}
	}
	if sp == nil {
		return report{}, fmt.Errorf("unknown workload %q", *name)
	}
	e2eDefs, layerDefs, err := metricDefs()
	if err != nil {
		return report{}, err
	}
	gold, err := golden()
	if err != nil {
		return report{}, err
	}
	pins := gold[sp.name][strconv.FormatUint(*seed, 10)]

	tr := newTracer(*trace == 1)
	var w bench
	var setupTimes []float64
	for rep := 1; rep <= sp.setupReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		w, err = sp.setup(*seed, tr, rep)
		if err != nil {
			return report{}, fmt.Errorf("%s setup: %w", sp.name, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	setupSpans := tr.spans

	// Timed passes. A traced run records spans only in its second
	// half so both halves time the same code.
	tr.on = false
	var walls, cpus, tracedWalls, allocs []float64
	var reference []unitResult
	var passStart int
	chk := checker{pins: pins, reported: map[string]bool{}}
	budget := time.Duration(*secs * float64(time.Second))
	for phase := 0; phase < 1+*trace; phase++ {
		if phase == 1 {
			tr.on = true
			passStart = len(tr.spans)
		}
		var spent time.Duration
		for n := 0; spent < budget/time.Duration(1+*trace) && (sp.maxPasses == 0 || n < sp.maxPasses); n++ {
			runtime.GC()
			m, units := w.pass(tr)
			spent += m.wall
			if phase == 1 {
				tracedWalls = append(tracedWalls, m.wall.Seconds())
			} else {
				walls = append(walls, m.wall.Seconds())
				cpus = append(cpus, m.cpu.Seconds())
				allocs = append(allocs, float64(m.alloc)/(1<<20))
			}
			if reference == nil {
				reference = units
				chk.checkPinned(units)
			}
			chk.check(units, reference)
		}
	}
	chk.printDigests(sp.name, *seed, reference)

	rep := report{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: map[string]metric{}}
	var values map[string]float64
	defs := e2eDefs
	if *trace == 1 {
		defs = layerDefs
		values = traceMetrics(w, tr, setupSpans, passStart, walls, tracedWalls)
		if err := tr.write(".bench_build/perfbench-traces", sp.name, *seed); err != nil {
			return report{}, fmt.Errorf("writing trace: %w", err)
		}
	} else {
		values = map[string]float64{
			"setup_s":     median(setupTimes),
			"wall_s":      median(walls),
			"cpu_s":       median(cpus),
			"alloc_mb":    median(allocs),
			"peak_rss_mb": peakRSSMiB(),
		}
	}
	for _, d := range defs {
		rep.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
		delete(values, d.Name)
	}
	if len(values) > 0 {
		var extra []string
		for k := range values {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		return report{}, fmt.Errorf("metrics missing from metrics.json: %v", extra)
	}
	return rep, nil
}

// traceMetrics derives the per-layer metrics of a traced run: the
// workload's own, each layer's self time per traced pass, the tracing
// overhead and coverage, and simulated work per untraced second.
func traceMetrics(w bench, tr *tracer, setupSpans []span, passStart int, walls, tracedWalls []float64) map[string]float64 {
	passSpans := tr.spans[passStart:]
	values := w.layerMetrics(setupSpans, passSpans, len(tracedWalls))
	untraced := median(walls)
	var tracedTotal float64
	for _, x := range tracedWalls {
		tracedTotal += x
	}
	top := topSeconds(passSpans)
	n := float64(len(tracedWalls))
	values["trace.overhead_s"] = median(tracedWalls) - untraced
	values["trace.top_span_share"] = top / tracedTotal
	for l, s := range selfSeconds(tr.spans, passStart) {
		values[l+".self_s"] = s / n
	}
	values["bench.self_s"] = (tracedTotal - top) / n
	acts, accesses := w.simWork()
	values["memctrl.acts_per_s"] = float64(acts) / untraced
	values["memctrl.accesses_per_s"] = float64(accesses) / untraced
	return values
}

// checker counts checked units and failures: a unit fails when its
// call failed or a guard tripped, when its digest differs from the
// first pass's, or when the seed is pinned and the digest differs
// from the pin. Each unit's first failure is printed.
type checker struct {
	pins              map[string]string
	attempted, failed int
	reported          map[string]bool
}

func (c *checker) check(units, reference []unitResult) {
	for i, u := range units {
		c.attempted++
		var err error
		switch {
		case u.err != nil:
			err = u.err
		case i >= len(reference) || reference[i].unit != u.unit || reference[i].digest != u.digest:
			err = errors.New("digest differs from the first pass")
		case c.pins != nil && c.pins[u.unit] != u.digest:
			err = fmt.Errorf("digest %s, pinned %s", u.digest, c.pins[u.unit])
		}
		if err != nil {
			c.failed++
			if !c.reported[u.unit] {
				fmt.Printf("FAIL %s: %v\n", u.unit, err)
				c.reported[u.unit] = true
			}
		}
	}
}

// checkPinned fails the run when a pinned seed's units are not exactly
// the pinned ones.
func (c *checker) checkPinned(units []unitResult) {
	if c.pins != nil && len(units) != len(c.pins) {
		c.attempted++
		c.failed++
		fmt.Printf("FAIL: %d units, %d pinned\n", len(units), len(c.pins))
	}
}

func (c *checker) printDigests(workload string, seed uint64, units []unitResult) {
	state := "unpinned"
	if c.pins != nil {
		state = "pinned"
	}
	for _, u := range units {
		fmt.Printf("digest %s seed=%d %s %s %s\n", workload, seed, u.unit, u.digest, state)
	}
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// meter accumulates host wall time, process CPU time and heap
// allocation over the timed segments of a pass, leaving out the checks
// between them.
type meter struct {
	wall, cpu time.Duration
	alloc     uint64
	t0        time.Time
	c0        time.Duration
	a0        uint64
	ms        runtime.MemStats
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.ms)
	m.a0 = m.ms.TotalAlloc
	m.c0 = cpuNow()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.wall += time.Since(m.t0)
	m.cpu += cpuNow() - m.c0
	runtime.ReadMemStats(&m.ms)
	m.alloc += m.ms.TotalAlloc - m.a0
}

// cpuNow reads the process CPU clock (Linux): the time all of the
// process's threads ran. Unlike wall time it leaves out time the
// hypervisor gives the machine's CPUs to other guests, the main source
// of run-to-run noise on a shared host.
func cpuNow() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno))
	}
	return time.Duration(ts.Nano())
}
