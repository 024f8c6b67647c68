package bench

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"time"
)

// Result is the record an experiment stores in its BENCH_<experiment>.json:
// a common header plus the experiment's own row type, which defines the
// per-row JSON schema.
type Result[R any] struct {
	Experiment string `json:"experiment"`
	Device     string `json:"device"`
	Note       string `json:"note"`
	Rows       []R    `json:"rows"`
}

// Marshal renders the record the way the BENCH files store it: two-space
// indent and a trailing newline.
func (r *Result[R]) Marshal() ([]byte, error) {
	js, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(js, '\n'), nil
}

// The -quick runs gate on the committed baseline with one of two
// comparators. Each takes the measured and the baseline values indexed by
// configuration; configurations missing from either side are skipped, and
// a run sharing none with the baseline is an error (the gate would
// otherwise pass vacuously).

// compareRatios fails when a measured ratio falls below
// min(baseline·(1−tol), ceiling). Ratios self-normalise across machines,
// so the gate tracks algorithmic regressions rather than hardware; the
// ceiling caps the requirement at the experiment's acceptance claim, so a
// core-starved runner that still shows a healthy win never flakes because
// the baseline machine recorded a larger one.
func compareRatios(cur, base map[string]float64, tol, ceiling float64) error {
	return compare(cur, base, func(key string, got, want float64) string {
		if need := min(want*(1-tol), ceiling); got < need {
			return fmt.Sprintf("%s: ratio %.2fx < required %.2fx (baseline %.2fx - %.0f%%, cap %.1fx)",
				key, got, need, want, tol*100, ceiling)
		}
		return ""
	})
}

// latencyFloorNs is the grace floor of compareLatencies, so
// microsecond-scale baselines never flake on a loaded runner.
const latencyFloorNs = 10e6

// compareLatencies fails when a measured latency (ns) exceeds
// max(baseline·factor, 10 ms).
func compareLatencies(cur, base map[string]float64, factor float64) error {
	return compare(cur, base, func(key string, got, want float64) string {
		if limit := max(want*factor, latencyFloorNs); got > limit {
			return fmt.Sprintf("%s: %s > limit %s (baseline %s x%.1f)",
				key, fmtDur(time.Duration(got)), fmtDur(time.Duration(limit)),
				fmtDur(time.Duration(want)), factor)
		}
		return ""
	})
}

// compare runs check on every configuration both sides hold, in key
// order; check describes a failure, or returns "" for a pass.
func compare(cur, base map[string]float64, check func(key string, got, want float64) string) error {
	var bad []string
	checked := 0
	for _, key := range slices.Sorted(maps.Keys(base)) {
		got, ok := cur[key]
		if !ok {
			continue
		}
		checked++
		if msg := check(key, got, base[key]); msg != "" {
			bad = append(bad, msg)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("regression: %v", bad)
	}
	if checked == 0 {
		return fmt.Errorf("no overlapping configurations between run and baseline")
	}
	return nil
}
