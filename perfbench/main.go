// Command perfbench is the repository's benchmark: three closed-loop
// workloads, each two ranks in one process, timed from rank 0.
//
//	bash perfbench/run.sh --workload halo-hyb --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run. With
// --trace 1 it prints the per-layer metrics: the same workload with spans
// recorded around every call into the program, plus replays of the
// workload's traffic one layer further down (typed API, Datatype facade,
// device, transport, wire), so that each layer's self time is its replay
// time minus the replay beneath it. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Every op's output is verified. A result file with the run's metadata is
// written under --out, and the traced run also writes its spans there as
// Chrome trace-event JSON for Perfetto.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// minRunOps is the fewest ops a measured run may have: enough that ten lie
// beyond the 99th percentile.
const minRunOps = 1000

// setupReps is how many worlds a run builds, half before and half after
// the measured loop, to take the median set-up time.
const setupReps = 100

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{v, unit} }

// result is what one run reports.
type result struct {
	Workload  string  `json:"workload"`
	Trace     bool    `json:"trace"`
	Seconds   float64 `json:"seconds"`
	Meta      meta    `json:"meta"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// ErrorRatio is failed over attempted: ops whose output did not verify.
	ErrorRatio float64 `json:"error_ratio"`
	Metrics    metrics `json:"metrics"`
	TraceFile  string  `json:"trace_file,omitempty"`
}

func (r *result) count(l loopResult) {
	r.Attempted += l.ops
	r.Failed += l.failed
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: halo-hyb, allreduce-chan or pingpong-tcp")
		seed     = flag.Uint64("seed", 1, "seed of the workload's inputs")
		seconds  = flag.Float64("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
		out      = flag.String("out", ".bench_build", "directory for result and trace files")
		commit   = flag.String("commit", "unknown", "git commit of the program, recorded in the result file")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	cfg := config{
		workload:  *workload,
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		corruptOp: -1,
		commit:    *commit,
	}
	// A wedged run must still exit, without a result, inside the three
	// minutes a run is allowed.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: watchdog: run did not finish")
		os.Exit(3)
	})
	res, err := run(cfg, *out)
	watchdog.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, res, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, out string) (*result, error) {
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: cfg.workload,
		Trace:    cfg.trace,
		Seconds:  cfg.seconds.Seconds(),
		Meta:     runMeta(cfg.seed, cfg.commit),
		Metrics:  metrics{},
	}
	if cfg.trace {
		err = runTraced(cfg, b, res, out)
	} else {
		err = runEndToEnd(cfg, b, res)
	}
	if err != nil {
		return nil, err
	}
	if res.Attempted > 0 {
		res.ErrorRatio = float64(res.Failed) / float64(res.Attempted)
	}
	return res, nil
}

// steps binds the workload's op to each rank of w.
func steps(b bench, w *world, trs [2]*tracer) [2]stepFunc {
	var s [2]stepFunc
	for r := range s {
		s[r] = func(i int) (int64, bool, error) { return b.step(r, w.comms[r], i, trs[r]) }
	}
	return s
}

// measure runs a short warm-up and then the measured closed loop of the
// workload on w, from op first on, counting both into res. onStart, when
// not nil, runs between the two, so counters read there cover only the
// measured loop.
func measure(b bench, w *world, first int, dur time.Duration, minOps int, trs [2]*tracer, res *result, onStart func()) (loopResult, error) {
	s := steps(b, w, trs)
	warm, err := closedLoop(w.abort, first, min(dur/10, time.Second), 20, 0, make([]int64, 0, 1<<12), s)
	if err != nil {
		return warm, fmt.Errorf("warm-up: %w", err)
	}
	res.count(warm)
	// Size the latency record from the warm-up rate, with room to spare,
	// so that growing it does not add to the loop's allocation count.
	perOp := max(warm.wall/time.Duration(max(warm.ops, 1)), time.Microsecond)
	lat := make([]int64, 0, 4*int(dur/perOp)+1<<16)
	b.kernelNs()
	for _, t := range trs {
		t.reset()
	}
	if onStart != nil {
		onStart()
	}
	l, err := closedLoop(w.abort, first+warm.ops, dur, minOps, allocCycles*b.cycle(), lat, s)
	if err != nil {
		return l, err
	}
	res.count(l)
	return l, nil
}

// window is a run of consecutive ops of the measured loop.
type window struct {
	ops           int
	busy, payload float64 // seconds inside ops; payload bytes
	p50, p99      float64 // ns
}

// A world's measured loop is cut into windows of at least minWindowOps
// ops, enough that ten lie beyond each window's 99th percentile, and at
// most windowsPerWorld of them, so that each window is as long as the run
// allows and spans several garbage collections.
const (
	windowsPerWorld = 2
	minWindowOps    = 1000
)

// windows cuts one world's measured loop into equal windows of whole
// cycles of the workload's size mix; the few ops left over are dropped.
// Timings reported as the median over windows are not moved by a burst of
// interference that hits a few of them.
func windows(b bench, l loopResult) []window {
	n := min(max(l.ops/minWindowOps, 1), windowsPerWorld)
	per := l.ops / n / b.cycle() * b.cycle()
	if per == 0 {
		n, per = 1, l.ops
	}
	out := make([]window, n)
	for k := range out {
		lo, hi := k*per, (k+1)*per
		w := window{ops: per, p50: quantile(l.lat[lo:hi], 0.50), p99: quantile(l.lat[lo:hi], 0.99)}
		for i := lo; i < hi; i++ {
			w.busy += float64(l.lat[i]) / 1e9
			w.payload += float64(b.payload(l.first + i))
		}
		out[k] = w
	}
	return out
}

func medianOf(ws []window, f func(window) float64) float64 {
	v := make([]float64, len(ws))
	for k, w := range ws {
		v[k] = f(w)
	}
	return medianFloat(v)
}

// medianFloat returns the median of v, sorting v in place.
func medianFloat(v []float64) float64 {
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// allocCycles is the length, in cycles of the size mix, of the stretches
// over which the measured loop's heap allocation is sampled.
const allocCycles = 8

// allocPerOp returns the heap bytes allocated per op in each complete
// stretch of l's allocation samples, or over the whole loop when it had
// no complete stretch. Both ranks' allocations count. A frame pool miss
// on a large buffer adds hundreds of kilobytes at once, and how many
// misses a loop takes depends on how the scheduler spreads the ranks
// over the Ps; the median over stretches reports the common rate rather
// than the count of those bursts.
func allocPerOp(b bench, l loopResult) []float64 {
	every := allocCycles * b.cycle()
	var out []float64
	for k := 0; k+1 < len(l.allocAt) && (k+1)*every <= l.ops; k++ {
		out = append(out, float64(l.allocAt[k+1]-l.allocAt[k])/float64(every))
	}
	if len(out) == 0 {
		out = append(out, float64(l.allocBytes)/float64(l.ops))
	}
	return out
}

func payloadBytes(b bench, ops int) float64 {
	var s float64
	for i := 0; i < ops; i++ {
		s += float64(b.payload(i))
	}
	return s
}

func medianDur(xs []setupTimes, part func(setupTimes) time.Duration) float64 {
	v := make([]int64, len(xs))
	for k, x := range xs {
		v[k] = int64(part(x))
	}
	return median(v) / 1e9
}

// worldsPerRun is how many worlds the untraced run measures in turn, each
// for an equal share of the run. A world's goroutines settle into one
// scheduling pattern for its lifetime, and some patterns run the same ops
// far faster than others; the median over several worlds' windows reports
// the common case instead of whichever pattern one world fell into.
const worldsPerRun = 8

// runEndToEnd is the untraced run: set-up time, then the workload alone.
func runEndToEnd(cfg config, b bench, res *result) error {
	setups, err := measureSetup(b.device(), setupReps/2)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	var wins []window
	var allocs []float64
	next := 0
	for k := range worldsPerRun {
		w, _, err := newWorld(b.device(), false)
		if err != nil {
			return err
		}
		l, err := measure(b, w, next, cfg.seconds/worldsPerRun, minRunOps/worldsPerRun, [2]*tracer{}, res, nil)
		if err == nil && k == worldsPerRun-1 {
			var failed int
			failed, err = b.finish(w)
			res.Failed += failed
		}
		if err != nil {
			w.abort()
			return err
		}
		if err := w.close(); err != nil {
			return err
		}
		next = l.first + l.ops
		wins = append(wins, windows(b, l)...)
		allocs = append(allocs, allocPerOp(b, l)...)
	}
	more, err := measureSetup(b.device(), setupReps/2)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	setups = append(setups, more...)
	m := res.Metrics
	m.set("setup_s", "s", medianDur(setups, setupTimes.total))
	m.set("ops_per_s", "1/s", medianOf(wins, func(w window) float64 { return float64(w.ops) / w.busy }))
	m.set("op_p50_us", "us", medianOf(wins, func(w window) float64 { return w.p50 / 1e3 }))
	m.set("op_p99_us", "us", medianOf(wins, func(w window) float64 { return w.p99 / 1e3 }))
	m.set("payload_mib_per_s", "MiB/s", medianOf(wins, func(w window) float64 { return w.payload / w.busy / (1 << 20) }))
	m.set("alloc_bytes_per_op", "B", medianFloat(allocs))
	return nil
}

// report writes the result file, a readable summary and, last, the JSON
// result line.
func report(f *os.File, res *result, out string) error {
	if err := os.MkdirAll(filepath.Join(out, "results"), 0o755); err != nil {
		return err
	}
	path := filepath.Join(out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, res.Meta.Seed, btoi(res.Trace)))
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	mt := res.Meta
	fmt.Fprintf(f, "perfbench %s seed=%d trace=%d seconds=%g: nproc=%d GOMAXPROCS=%d cpu=%q %s commit=%s; %s\n",
		res.Workload, mt.Seed, btoi(res.Trace), res.Seconds, mt.NProc, mt.GOMAXPROCS, mt.CPU, mt.GoVersion, mt.Commit, mt.Network)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(f, "  %-28s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	fmt.Fprintf(f, "  %-28s %14.6g (%d of %d ops failed verification)\n", "error_ratio", res.ErrorRatio, res.Failed, res.Attempted)
	fmt.Fprintf(f, "  result file: %s\n", path)
	if res.TraceFile != "" {
		fmt.Fprintf(f, "  trace file:  %s (open in ui.perfetto.dev)\n", res.TraceFile)
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return err
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
