package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// The tests run every workload in a quick mode: a fraction of a second of
// measurement instead of the benchmark's run length.
const quick = 300 * time.Millisecond

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) (endToEnd, perLayer []metricSpec) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

func quickRun(t *testing.T, workload string, trace bool, corruptOp int) *result {
	t.Helper()
	res, err := run(config{workload: workload, seed: 7, seconds: quick, trace: trace, corruptOp: corruptOp}, t.TempDir())
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return res
}

// Each workload reports exactly the metrics BENCHMARK.json names, with
// their units, and every op verifies.
func TestEveryMetricReported(t *testing.T) {
	endToEnd, perLayer := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := quickRun(t, w.name, trace, -1)
			want := endToEnd
			if trace {
				want = perLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s has unit %q, BENCHMARK.json says %q", w.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			if res.Attempted == 0 || res.Failed != 0 || res.ErrorRatio != 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed", w.name, trace, res.Failed, res.Attempted)
			}
		}
	}
}

// A deliberately corrupted reply or reduction result must be caught.
func TestCorruptionRaisesErrorRatio(t *testing.T) {
	for _, w := range workloads {
		res := quickRun(t, w.name, false, 5)
		if res.Failed == 0 || res.ErrorRatio <= 0 {
			t.Errorf("%s: corrupted op 5 went unnoticed (%d of %d failed)", w.name, res.Failed, res.Attempted)
		}
	}
}

// In a traced run the self times of an op's spans add up to no more than
// the op's wall time.
func TestSpanSelfTimesWithinWall(t *testing.T) {
	for _, wl := range workloads {
		b, err := newBench(config{workload: wl.name, seed: 3, corruptOp: -1})
		if err != nil {
			t.Fatal(err)
		}
		w, _, err := newWorld(b.device(), false)
		if err != nil {
			t.Fatal(err)
		}
		epoch := time.Now()
		trs := [2]*tracer{newTracer(0, epoch, 0), newTracer(1, epoch, 0)}
		if _, err := measure(b, w, 0, quick, 100, trs, &result{}, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		for _, tr := range trs {
			selfSum, wall := tr.opTotals()
			if len(wall) == 0 {
				t.Fatalf("%s rank %d: no ops traced", wl.name, tr.rank)
			}
			for op, s := range selfSum {
				if s > wall[op] {
					t.Errorf("%s rank %d op %d: self times sum to %d ns, wall %d ns", wl.name, tr.rank, op, s, wall[op])
				}
			}
		}
	}
}

// opTotals sums, per op, the self times of the op's spans and the op's wall
// time (its root span's duration). The first must never exceed the second.
func (t *tracer) opTotals() (selfSum, wall map[int32]int64) {
	selfSum, wall = map[int32]int64{}, map[int32]int64{}
	for i, self := range t.selfTimes() {
		s := t.spans[i]
		selfSum[s.op] += self
		if s.parent < 0 {
			wall[s.op] += s.end - s.start
		}
	}
	return selfSum, wall
}
