package bench

import (
	"fmt"
	"time"
)

// The elastic experiment: cost of the full elastic-recovery cycle. Each
// sample is a fresh in-process job in which one rank dies mid-collective;
// rank 0 measures two latencies:
//
//   - detect: from the victim's death to the survivor holding the typed
//     ErrRankFailed (obituary propagation plus pending-op failure), and
//   - rebuild: from that observation to a verified full-size world again
//     (Shrink → Spawn → Merge → ground-truth collective).
//
// The cycle itself is supplied as a callback because the elastic runtime
// lives in the top-level mpj package, which this package cannot import
// (mpj's internal test files import bench).
//
// The recorded table (BENCH_elastic.json) documents the recovery cost;
// the -quick run re-measures a subset and fails when a latency exceeds
// three times the committed value (with a 10ms grace floor, so a loaded
// CI runner cannot flake a healthy microsecond-scale result).

// ElasticCycleFunc runs one detect → Shrink → Spawn → Merge → verify
// cycle on a fresh np-rank local job and returns rank 0's observed
// detection and rebuild latencies.
type ElasticCycleFunc func(np int) (detect, rebuild time.Duration, err error)

// ElasticBenchRow is one measured configuration, recorded in
// BENCH_elastic.json.
type ElasticBenchRow struct {
	Op      string  `json:"op"` // "detect" | "rebuild"
	NP      int     `json:"np"`
	NsPerOp float64 `json:"ns_per_op"`
}

// ElasticSweep runs the elastic-recovery micro-experiment. quick trims
// the sweep to the subset the CI smoke gate re-measures.
func ElasticSweep(quick bool, cycle ElasticCycleFunc) (*Table, *Result[ElasticBenchRow], error) {
	nps := []int{3, 4, 8}
	iters := 10
	if quick {
		nps = []int{4}
		iters = 5
	}
	res := &Result[ElasticBenchRow]{
		Experiment: "elastic",
		Device:     "chan",
		Note:       "detect: victim death to typed ErrRankFailed at a survivor; rebuild: Shrink+Spawn+Merge to a verified full-size world (fresh job per sample)",
	}
	t := &Table{
		Title:   "ELASTIC: detect and Shrink+Spawn+Merge rebuild latency (chan device)",
		Headers: []string{"op", "np", "latency"},
	}
	for _, np := range nps {
		var detTotal, rebTotal time.Duration
		for it := 0; it < iters; it++ {
			det, reb, err := cycle(np)
			if err != nil {
				return nil, nil, fmt.Errorf("elastic np=%d sample %d: %w", np, it, err)
			}
			detTotal += det
			rebTotal += reb
		}
		det := ElasticBenchRow{Op: "detect", NP: np,
			NsPerOp: float64(detTotal.Nanoseconds()) / float64(iters)}
		reb := ElasticBenchRow{Op: "rebuild", NP: np,
			NsPerOp: float64(rebTotal.Nanoseconds()) / float64(iters)}
		res.Rows = append(res.Rows, det, reb)
		t.Rows = append(t.Rows,
			Row{"detect", fmt.Sprintf("%d", np), fmtDur(time.Duration(det.NsPerOp))},
			Row{"rebuild", fmt.Sprintf("%d", np), fmtDur(time.Duration(reb.NsPerOp))},
		)
	}
	return t, res, nil
}

// ElasticGate is the -quick regression gate against BENCH_elastic.json:
// each latency must stay within 3x the baseline's, with the 10 ms grace
// floor, like FTGate.
func ElasticGate(cur, base *Result[ElasticBenchRow]) error {
	return compareLatencies(latencies(cur), latencies(base), 3.0)
}
