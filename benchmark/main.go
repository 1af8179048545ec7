// Command pcebench is the repository's benchmark: it runs one named
// workload against the PCE-based LISP control plane — the simulator or
// the real lispd daemon over loopback UDP — checks the program's outputs,
// and prints every metric by name with its unit.
//
//	pcebench --workload sim-flows --seed 1 --seconds 10 --trace 0
//	pcebench steady --runs 10 --seconds 10
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set; with --trace 1 the per-layer ledger.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/pcelisp/pcelisp/internal/metrics"
)

// metric is one printed measurement.
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

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string // where traced runs write their span log ("" = none)
}

// report is what a workload hands back: its op counts, the failures its
// checks found, and the metrics it measured.
type report struct {
	attempted, failed int64
	problems          []string // correctness violations (empty = correct)
	metrics           map[string]metric
}

func (r *report) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a correctness violation; only the first few are kept.
func (r *report) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check records a violation when err is non-nil.
func (r *report) check(err error) {
	if err != nil {
		r.fail("%v", err)
	}
}

var workloads = map[string]func(runConfig) (*report, error){
	"sim-flows":      runSimFlows,
	"daemon-forward": runDaemonForward,
	"daemon-setup":   runDaemonSetup,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steadyMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "pcebench steady:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer ledger")
	outDir := flag.String("out-dir", "", "directory for traced runs' span logs")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "pcebench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "pcebench: --seconds must be positive")
		os.Exit(2)
	}
	fmt.Println("# machine", fingerprint())
	rep, err := run(runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcebench:", err)
		os.Exit(1)
	}
	for _, p := range rep.problems {
		fmt.Println("# CHECK FAILED:", p)
	}
	res := result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// fingerprint names the machine a result came from, so figures from two
// machines are never compared.
func fingerprint() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// phase samples process CPU time, allocation counters and GC activity at
// the start of a timed phase; end turns the deltas into per-op figures.
type phase struct {
	cpu time.Duration
	mem runtime.MemStats
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size so far, in MiB.
// Workloads read it when a run reaches a fixed op count (rssMark), so the
// figure does not grow with how many ops a run of fixed length completes.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// startPhase collects the set-up's garbage and starts counting.
func startPhase() *phase {
	runtime.GC()
	p := &phase{}
	runtime.ReadMemStats(&p.mem)
	p.cpu = cpuTime()
	return p
}

// phaseTotals is one timed phase's resource use.
type phaseTotals struct {
	cpu        time.Duration
	allocs     uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func (p *phase) end() phaseTotals {
	cpu := cpuTime() - p.cpu
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return phaseTotals{
		cpu:        cpu,
		allocs:     m.Mallocs - p.mem.Mallocs,
		allocBytes: m.TotalAlloc - p.mem.TotalAlloc,
		gcCycles:   m.NumGC - p.mem.NumGC,
		gcPause:    time.Duration(m.PauseTotalNs - p.mem.PauseTotalNs),
	}
}

// slices is how many equal parts a timed phase is cut into; rate, CPU and
// latency metrics are the median over the parts, so a transient stall on
// a shared machine moves one part, not the figure.
const slices = 10

// part is one slice (or round) of a timed phase.
type part struct {
	wall time.Duration
	cpu  time.Duration
	lat  []time.Duration // latencies of the ops that completed in it
}

// sliceClock cuts a timed phase into slices of equal wall time and
// samples process CPU time at every boundary from its own goroutine.
type sliceClock struct {
	base  time.Time
	width time.Duration
	cpuAt [slices + 1]time.Duration
	done  chan struct{}
}

func startSliceClock(seconds float64) *sliceClock {
	c := &sliceClock{
		base:  time.Now(),
		width: time.Duration(seconds * float64(time.Second) / slices),
		done:  make(chan struct{}),
	}
	c.cpuAt[0] = cpuTime()
	go func() {
		defer close(c.done)
		for k := 1; k <= slices; k++ {
			time.Sleep(time.Until(c.base.Add(time.Duration(k) * c.width)))
			c.cpuAt[k] = cpuTime()
		}
	}()
	return c
}

// index is the slice an op completing now belongs to; slices means after
// the last boundary (the drain), which no median counts.
func (c *sliceClock) index(now time.Duration) int {
	k := int(now / c.width)
	if k > slices {
		k = slices
	}
	return k
}

// parts waits for the last boundary and pairs each slice's CPU time with
// the latencies recorded in it (lat is indexed by slice).
func (c *sliceClock) parts(lat [][]time.Duration) []part {
	<-c.done
	var ps []part
	for k := 0; k < slices && k < len(lat); k++ {
		ps = append(ps, part{wall: c.width, cpu: c.cpuAt[k+1] - c.cpuAt[k], lat: lat[k]})
	}
	return ps
}

// setEndToEnd fills the end-to-end metric set shared by every workload:
// rates, CPU per op and latency percentiles are medians over the parts;
// allocation counts cover the whole timed phase.
func (r *report) setEndToEnd(setup time.Duration, t phaseTotals, ops int64, parts []part, rssMB float64) {
	n := float64(ops)
	if n < 1 {
		n = 1
	}
	var rate, cpu, p50, p90 []float64
	for _, p := range parts {
		k := float64(len(p.lat))
		if k == 0 {
			continue
		}
		rate = append(rate, k/p.wall.Seconds())
		cpu = append(cpu, float64(p.cpu.Nanoseconds())/1e3/k)
		lat := latencySummary(p.lat)
		p50 = append(p50, lat.Quantile(0.50))
		p90 = append(p90, lat.Quantile(0.90))
	}
	r.set("setup_s", "s", setup.Seconds())
	r.set("ops_per_s", "1/s", median(rate))
	r.set("op_p50_us", "us", median(p50))
	r.set("op_p90_us", "us", median(p90))
	r.set("cpu_us_per_op", "us", median(cpu))
	r.set("allocs_per_op", "count", float64(t.allocs)/n)
	r.set("alloc_bytes_per_op", "B", float64(t.allocBytes)/n)
	r.set("peak_rss_mb", "MB", rssMB)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	_, m, _ := quartiles(v)
	return m
}

// setGC fills the per-layer GC figures of a timed phase.
func (r *report) setGC(t phaseTotals, ops int64) {
	n := float64(ops)
	if n < 1 {
		n = 1
	}
	r.set("gc.cycles_per_kop", "count", float64(t.gcCycles)*1000/n)
	r.set("gc.pause_us_per_op", "us", float64(t.gcPause.Nanoseconds())/1e3/n)
}

func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// latencySummary collects durations, in microseconds, for their order
// statistics.
func latencySummary(ds []time.Duration) *metrics.Summary {
	s := metrics.NewSummary("latency_us")
	for _, d := range ds {
		s.Add(usOf(d))
	}
	return s
}

// medianDuration returns the median of ds.
func medianDuration(ds []time.Duration) time.Duration {
	return time.Duration(latencySummary(ds).Median() * 1e3)
}
