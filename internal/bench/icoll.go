package bench

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"mpj/internal/core"
	"mpj/internal/transport"
)

// runJobHyb runs an np-rank in-process job over co-located hybrid
// endpoints — the device the schedule-engine overlap claims are made on.
func runJobHyb(np int, fn func(w *core.Comm) error) error {
	loc := transport.ProcessLocality()
	locs := make([]string, np)
	for i := range locs {
		locs[i] = loc
	}
	jobID := benchJobID()
	return runJobOn(np, func(rank int) (transport.Transport, error) {
		return transport.NewHybTransport(transport.HybConfig{Rank: rank, JobID: jobID, Locs: locs})
	}, nil, fn)
}

// spinSink defeats dead-code elimination in busySpin; atomic because all
// ranks of an in-process job spin concurrently.
var spinSink atomic.Uint64

// busySpin burns CPU for roughly d, invoking poll (when non-nil) every few
// hundred floating-point operations — the way a real solver drives
// collective progress from inside its compute loop.
func busySpin(d time.Duration, poll func()) {
	start := time.Now()
	var sink float64
	for time.Since(start) < d {
		for i := 0; i < 500; i++ {
			sink += float64(i) * 1e-9
		}
		if poll != nil {
			poll()
		}
	}
	spinSink.Store(math.Float64bits(sink))
}

// stallSpin models a compute phase that leaves the core partly idle —
// memory-stall-bound kernels, I/O, accelerator offload — by sleeping in
// short slices and polling between them. Communication can overlap such a
// phase even when ranks outnumber cores.
func stallSpin(d time.Duration, poll func()) {
	start := time.Now()
	for time.Since(start) < d {
		time.Sleep(100 * time.Microsecond)
		if poll != nil {
			poll()
		}
	}
}

// computeModel is one way the experiment spends the compute phase.
type computeModel struct {
	name string
	run  func(d time.Duration, poll func())
}

// computeModels: cpu-bound compute can only overlap when free cores exist
// to progress the transport; stall-bound compute overlaps anywhere.
var computeModels = []computeModel{
	{"cpu", busySpin},
	{"stall", stallSpin},
}

// overlapResult is one row of the overlap experiment, measured on rank 0.
type overlapResult struct {
	comm    time.Duration // pure allreduce per op
	compute time.Duration // the agreed compute phase
	blk     time.Duration // compute; Allreduce   (no overlap possible)
	nb      time.Duration // Iallreduce; compute; Wait
}

// overlapReps is how often each timed loop repeats; the reported value is
// the minimum per-iteration time, which strips scheduler jitter the way
// min-of-k microbenchmarks do.
const overlapReps = 3

// measureOverlap times one payload size under one compute model: a
// compute phase calibrated to the measured allreduce cost, run back to
// back (blocking) and overlapped (non-blocking schedule posted before the
// compute phase).
func measureOverlap(np, count, iters int, model computeModel) (overlapResult, error) {
	var res overlapResult
	err := runJobHyb(np, func(w *core.Comm) error {
		in := make([]float64, count)
		out := make([]float64, count)
		for i := range in {
			in[i] = float64(w.Rank() + i)
		}
		op := func() error { return w.Allreduce(in, 0, out, 0, count, core.Double, core.SumOp) }

		// timed runs body iters times between barriers, overlapReps times,
		// and keeps the fastest per-iteration result.
		timed := func(body func() error) (time.Duration, error) {
			best := time.Duration(0)
			for rep := 0; rep < overlapReps; rep++ {
				if err := w.Barrier(); err != nil {
					return 0, err
				}
				start := time.Now()
				for i := 0; i < iters; i++ {
					if err := body(); err != nil {
						return 0, err
					}
				}
				per := time.Since(start) / time.Duration(iters)
				if best == 0 || per < best {
					best = per
				}
			}
			return best, nil
		}

		for i := 0; i < 3; i++ { // warm up: pools, routes, schedules
			if err := op(); err != nil {
				return err
			}
		}

		// 1. Pure collective cost.
		comm, err := timed(op)
		if err != nil {
			return err
		}

		// Agree on a compute phase equal to rank 0's measured collective
		// cost, the regime where overlap pays the most.
		agreed := []int64{comm.Nanoseconds()}
		if err := w.Bcast(agreed, 0, 1, core.Long, 0); err != nil {
			return err
		}
		spin := time.Duration(agreed[0])

		// 2. Blocking: compute, then communicate — costs add up.
		blk, err := timed(func() error {
			model.run(spin, nil)
			return op()
		})
		if err != nil {
			return err
		}

		// 3. Non-blocking: the schedule's first round is posted before the
		// compute phase, later rounds advance on the in-loop Test calls,
		// and Wait drains whatever remains.
		nb, err := timed(func() error {
			req, err := w.Iallreduce(in, 0, out, 0, count, core.Double, core.SumOp)
			if err != nil {
				return err
			}
			model.run(spin, func() { _, _, _ = req.Test() })
			_, err = req.Wait()
			return err
		})
		if err != nil {
			return err
		}

		if w.Rank() == 0 {
			res = overlapResult{comm: comm, compute: spin, blk: blk, nb: nb}
		}
		return nil
	})
	return res, err
}

// IcollOverlap generates the schedule-engine overlap table: for each
// payload size and compute model, the per-iteration cost of
// compute+Allreduce run blocking versus overlapped with Iallreduce on an
// np-rank hybrid-device job. The "overlap recovered" column is the share
// of the collective cost hidden behind compute:
// (blocking - nonblocking) / allreduce. The cpu rows need free cores to
// show recovery (GOMAXPROCS > np); the stall rows show the engine's
// overlap on any machine.
func IcollOverlap(np int, counts []int, iters int) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("ICOLL: compute/communication overlap via Iallreduce (np=%d, hyb device)", np),
		Headers: []string{"doubles", "compute model", "allreduce", "compute",
			"blocking/iter", "nonblocking/iter", "overlap recovered"},
	}
	for _, count := range counts {
		for _, model := range computeModels {
			res, err := measureOverlap(np, count, iters, model)
			if err != nil {
				return nil, fmt.Errorf("icoll count=%d model=%s: %w", count, model.name, err)
			}
			recovered := "-"
			if res.comm > 0 {
				recovered = fmt.Sprintf("%.0f%%", 100*float64(res.blk-res.nb)/float64(res.comm))
			}
			t.Rows = append(t.Rows, Row{
				fmt.Sprintf("%d", count),
				model.name,
				fmtDur(res.comm),
				fmtDur(res.compute),
				fmtDur(res.blk),
				fmtDur(res.nb),
				recovered,
			})
		}
	}
	return t, nil
}
