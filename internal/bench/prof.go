package bench

import (
	"fmt"
	"os"
	"time"

	"mpj/internal/core"
	"mpj/internal/device"
	"mpj/internal/prof"
)

// The PROF experiment: cost of the instrumentation layer. Every hook site
// branches on a nil recorder, so profiling-off must price like the
// uninstrumented build, and the atomic counters must stay cheap enough to
// leave on in production (≤10% on the latency-bound ping-pong, the
// workload most sensitive to per-message bookkeeping). The trace mode is
// recorded for reference only — it takes a mutex per schedule event and
// is priced as a debugging tool, not a production default.
//
// The recorded table (BENCH_prof.json) documents the overhead; the -quick
// run re-measures ping-pong off vs counters and fails when counters cost
// more than 10% (plus a 200ns grace so nanosecond-scale timer noise on a
// loaded CI runner cannot flake the gate).

// ProfBenchRow is one measured configuration, recorded in BENCH_prof.json.
type ProfBenchRow struct {
	Workload  string  `json:"workload"` // "pingpong" | "allreduce"
	Mode      string  `json:"mode"`     // "off" | "counters" | "trace"
	Bytes     int     `json:"bytes"`    // payload bytes per operation
	NsPerOp   float64 `json:"ns_per_op"`
	SentBytes int64   `json:"sent_bytes"` // rank 0's counter total (0 when off)
}

// runProfiled runs fn on an np-rank channel job with a prof.Recorder for
// spec on every device (none when spec is disabled, pricing the off
// branch). It returns rank 0's counters, read after device close, when
// trace files have flushed.
func runProfiled(np int, spec prof.Spec, fn func(w *core.Comm) error) (prof.Snapshot, error) {
	var rank0 *prof.Recorder
	opts := func(rank int) []device.Option {
		r := prof.New(rank, spec)
		if r == nil {
			return nil
		}
		prof.Track(r)
		if rank == 0 {
			rank0 = r
		}
		return []device.Option{device.WithProfiler(r)}
	}
	if err := runJobOn(np, chanEndpoints(np), opts, fn); err != nil || rank0 == nil {
		return prof.Snapshot{}, err
	}
	return rank0.Snapshot(), nil
}

// profPingPong times a two-rank byte ping-pong under spec: per-op is one
// message hop (half the round trip), the number most sensitive to
// per-message instrumentation cost.
func profPingPong(spec prof.Spec, size, iters int) (time.Duration, prof.Snapshot, error) {
	var per time.Duration
	snap, err := runProfiled(2, spec, func(w *core.Comm) error {
		buf := make([]byte, size)
		me := w.Rank()
		peer := 1 - me
		hop := func() error {
			if me == 0 {
				if err := w.Send(buf, 0, size, core.Byte, peer, 0); err != nil {
					return err
				}
				_, err := w.Recv(buf, 0, size, core.Byte, peer, 0)
				return err
			}
			if _, err := w.Recv(buf, 0, size, core.Byte, peer, 0); err != nil {
				return err
			}
			return w.Send(buf, 0, size, core.Byte, peer, 0)
		}
		if err := hop(); err != nil { // warmup
			return err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := hop(); err != nil {
				return err
			}
		}
		if me == 0 {
			per = time.Since(start) / time.Duration(2*iters)
		}
		return nil
	})
	return per, snap, err
}

// profAllreduce times a four-rank large Allreduce under spec — the
// schedule engine's round and wait hooks dominate here, not the
// per-message counters.
func profAllreduce(spec prof.Spec, count, iters int) (time.Duration, prof.Snapshot, error) {
	var per time.Duration
	snap, err := runProfiled(4, spec, func(w *core.Comm) error {
		sbuf := make([]float64, count)
		rbuf := make([]float64, count)
		op := func() error {
			return w.Allreduce(sbuf, 0, rbuf, 0, count, core.Double, core.SumOp)
		}
		if err := op(); err != nil { // warmup
			return err
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := op(); err != nil {
				return err
			}
		}
		if w.Rank() == 0 {
			per = time.Since(start) / time.Duration(iters)
		}
		return nil
	})
	return per, snap, err
}

// profModes builds the three measured configurations. tracePrefix hosts
// the trace mode's per-rank timeline files.
func profModes(tracePrefix string) []struct {
	name string
	spec prof.Spec
} {
	return []struct {
		name string
		spec prof.Spec
	}{
		{"off", prof.Spec{}},
		{"counters", prof.Spec{Counters: true}},
		{"trace", prof.Spec{Counters: true, TracePrefix: tracePrefix}},
	}
}

// ProfSweep measures the instrumentation overhead matrix. The full run
// keeps the trace mode's timeline files under BENCH_prof_trace/ (load one
// in chrome://tracing or Perfetto); quick writes them to a scratch
// directory, re-measures each mode three times keeping the fastest run,
// and fails when ping-pong with counters costs more than 10% over off —
// the CI smoke gate for the off-branch and counter fast paths.
func ProfSweep(quick bool) (*Table, *Result[ProfBenchRow], error) {
	// The MPJ_PROF_ADDR contract of the runtimes holds here too, so the CI
	// smoke can curl a live endpoint while the bench runs under -hold.
	if addr := os.Getenv("MPJ_PROF_ADDR"); addr != "" {
		prof.PublishMPJ()
		if _, err := prof.Serve(addr); err != nil {
			return nil, nil, fmt.Errorf("MPJ_PROF_ADDR: %w", err)
		}
	}
	const ppBytes = 4 << 10
	arCount := 1 << 17 // 1 MiB of DOUBLE
	ppIters, arIters, reps := 2000, 30, 1
	if quick {
		ppIters, arIters, reps = 500, 8, 3
	}
	traceDir := "BENCH_prof_trace"
	if quick {
		dir, err := os.MkdirTemp("", "mpj-prof-bench")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir)
		traceDir = dir
	}

	res := &Result[ProfBenchRow]{
		Experiment: "prof",
		Device:     "chan",
		Note:       "ping-pong per-op is one hop (half round trip); counters are the always-on production mode, trace the debugging mode",
	}
	t := &Table{
		Title:   "PROF: instrumentation overhead (chan device)",
		Headers: []string{"workload", "mode", "payload", "per-op", "rank0 sent"},
	}
	perOp := map[string]float64{} // "workload/mode" → fastest ns/op
	for _, m := range profModes(traceDir + "/run") {
		var (
			ppBest, arBest time.Duration
			ppSnap, arSnap prof.Snapshot
		)
		ppSpec, arSpec := m.spec, m.spec
		if m.spec.TracePrefix != "" {
			// One timeline set per workload, or the larger job's ranks
			// overwrite the ping-pong's files.
			ppSpec.TracePrefix = m.spec.TracePrefix + "-pingpong"
			arSpec.TracePrefix = m.spec.TracePrefix + "-allreduce"
		}
		for r := 0; r < reps; r++ {
			pp, ps, err := profPingPong(ppSpec, ppBytes, ppIters)
			if err != nil {
				return nil, nil, fmt.Errorf("prof pingpong %s: %w", m.name, err)
			}
			ar, as, err := profAllreduce(arSpec, arCount, arIters)
			if err != nil {
				return nil, nil, fmt.Errorf("prof allreduce %s: %w", m.name, err)
			}
			if r == 0 || pp < ppBest {
				ppBest, ppSnap = pp, ps
			}
			if r == 0 || ar < arBest {
				arBest, arSnap = ar, as
			}
		}
		if m.spec.Enabled() && ppSnap.SentBytes() == 0 {
			return nil, nil, fmt.Errorf("prof pingpong %s: counters stayed zero", m.name)
		}
		for _, w := range []struct {
			name  string
			bytes int
			per   time.Duration
			snap  prof.Snapshot
		}{
			{"pingpong", ppBytes, ppBest, ppSnap},
			{"allreduce", arCount * 8, arBest, arSnap},
		} {
			perOp[w.name+"/"+m.name] = float64(w.per.Nanoseconds())
			res.Rows = append(res.Rows, ProfBenchRow{
				Workload: w.name, Mode: m.name, Bytes: w.bytes,
				NsPerOp: float64(w.per.Nanoseconds()), SentBytes: w.snap.SentBytes(),
			})
			t.Rows = append(t.Rows, Row{
				w.name, m.name, fmtSize(w.bytes), fmtDur(w.per),
				fmt.Sprintf("%d", w.snap.SentBytes()),
			})
		}
	}
	if quick {
		off, on := perOp["pingpong/off"], perOp["pingpong/counters"]
		const graceNs = 200
		if limit := off*1.10 + graceNs; on > limit {
			return nil, nil, fmt.Errorf(
				"prof: counters ping-pong %.0fns/op exceeds 10%% overhead budget over off (%.0fns/op, limit %.0fns/op)",
				on, off, limit)
		}
	}
	return t, res, nil
}
