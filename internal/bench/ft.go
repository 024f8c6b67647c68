package bench

import (
	"fmt"
	"sync"
	"time"

	"mpj/internal/core"
	"mpj/internal/fault"
	"mpj/internal/transport"
)

// The FT experiment: cost of the fault-tolerance machinery. It measures
// the all-alive agreement latency (Comm.Agree on a healthy world — the
// steady-state price of the coordinator-pull consensus) and the shrink
// latency (from a survivor observing a member's death to holding a
// working shrunken communicator — the recovery turnaround). Each shrink
// sample runs a fresh in-process job, because a dead rank stays dead.
//
// The recorded table (BENCH_ft.json) documents the recovery cost; the
// -quick run re-measures a subset and fails when the shrink latency
// exceeds three times the committed value (with a 10ms grace floor, so a
// loaded CI runner cannot flake a healthy microsecond-scale result).

// FTBenchRow is one measured configuration, recorded in BENCH_ft.json.
type FTBenchRow struct {
	Op      string  `json:"op"` // "agree" | "shrink"
	NP      int     `json:"np"`
	NsPerOp float64 `json:"ns_per_op"`
}

// measureAgree times the healthy-world agreement on an np-rank job.
func measureAgree(np, iters int) (FTBenchRow, error) {
	row := FTBenchRow{Op: "agree", NP: np}
	err := runJob(np, func(w *core.Comm) error {
		if _, err := w.Agree(^uint64(0)); err != nil { // warmup
			return err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := w.Agree(^uint64(0)); err != nil {
				return err
			}
		}
		if w.Rank() == 0 {
			row.NsPerOp = float64(time.Since(start).Nanoseconds()) / float64(iters)
		}
		return nil
	})
	return row, err
}

// measureShrink averages the detection-to-recovery latency over iters
// fresh jobs: rank np-1 is killed, and rank 0 times Shrink from the
// moment it observes the death to holding the new communicator.
func measureShrink(np, iters int) (FTBenchRow, error) {
	row := FTBenchRow{Op: "shrink", NP: np}
	var total time.Duration
	for it := 0; it < iters; it++ {
		lat, err := shrinkOnce(np)
		if err != nil {
			return row, fmt.Errorf("sample %d: %w", it, err)
		}
		total += lat
	}
	row.NsPerOp = float64(total.Nanoseconds()) / float64(iters)
	return row, nil
}

// shrinkOnce runs one kill-and-shrink job and returns rank 0's observed
// shrink latency. The job has no finalize barrier on the world (a member
// is dead by then); the survivors sync on the shrunken communicator and
// teardown is by abort.
func shrinkOnce(np int) (time.Duration, error) {
	victim := np - 1
	eps := transport.NewChanMesh(np)
	dom := fault.NewDomain()
	devs, worlds, abortAll, err := openJob(np, func(rank int) (transport.Transport, error) {
		return dom.Wrap(eps[rank]), nil
	}, nil)
	if err != nil {
		return 0, err
	}
	for i, d := range devs {
		dom.Bind(i, d)
	}

	var lat time.Duration
	errs := make([]error, np)
	var wg sync.WaitGroup
	for i := 0; i < np; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := worlds[i]
			if i == victim {
				dom.Kill(victim)
				return
			}
			for !dom.Killed(victim) {
				time.Sleep(10 * time.Microsecond)
			}
			start := time.Now()
			nc, err := w.Shrink()
			if err != nil {
				errs[i] = err
				return
			}
			if i == 0 {
				lat = time.Since(start)
			}
			errs[i] = nc.Barrier()
		}()
	}
	wg.Wait()
	abortAll()
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("rank %d: %w", i, err)
		}
	}
	return lat, nil
}

// FTSweep runs the fault-tolerance micro-experiment. quick trims the
// sweep to the subset the CI smoke gate re-measures.
func FTSweep(quick bool) (*Table, *Result[FTBenchRow], error) {
	nps := []int{2, 4, 8}
	agreeIters, shrinkIters := 50, 20
	if quick {
		nps = []int{4}
		agreeIters, shrinkIters = 20, 5
	}
	res := &Result[FTBenchRow]{
		Experiment: "ft",
		Device:     "chan",
		Note:       "agree: healthy-world consensus latency; shrink: death observed to shrunken communicator ready (fresh job per sample)",
	}
	t := &Table{
		Title:   "FT: fault-tolerant agreement and shrink latency (chan device)",
		Headers: []string{"op", "np", "latency"},
	}
	for _, np := range nps {
		ag, err := measureAgree(np, agreeIters)
		if err != nil {
			return nil, nil, fmt.Errorf("ft agree np=%d: %w", np, err)
		}
		sh, err := measureShrink(np, shrinkIters)
		if err != nil {
			return nil, nil, fmt.Errorf("ft shrink np=%d: %w", np, err)
		}
		res.Rows = append(res.Rows, ag, sh)
		t.Rows = append(t.Rows,
			Row{"agree", fmt.Sprintf("%d", np), fmtDur(time.Duration(ag.NsPerOp))},
			Row{"shrink", fmt.Sprintf("%d", np), fmtDur(time.Duration(sh.NsPerOp))},
		)
	}
	return t, res, nil
}

// latencies indexes a latency record's ns/op by "op/npN"; the FT and
// elastic rows share one schema.
func latencies[R FTBenchRow | ElasticBenchRow](res *Result[R]) map[string]float64 {
	out := map[string]float64{}
	for _, r := range res.Rows {
		l := FTBenchRow(r)
		out[fmt.Sprintf("%s/np%d", l.Op, l.NP)] = l.NsPerOp
	}
	return out
}

// FTGate is the -quick regression gate against BENCH_ft.json: each
// latency must stay within 3x the baseline's, with the 10 ms grace floor.
func FTGate(cur, base *Result[FTBenchRow]) error {
	return compareLatencies(latencies(cur), latencies(base), 3.0)
}
