package bench

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mpj/internal/core"
	"mpj/internal/device"
)

// Each case builds a baseline and a measured record holding one ratio
// (alternative vs reference) at one configuration.
func collRec(np int, ratio float64) *Result[CollBenchRow] {
	return &Result[CollBenchRow]{Rows: []CollBenchRow{
		{Op: "bcast", Alg: "classic", NP: np, Bytes: 1 << 20, NsPerOp: 1e6 * ratio},
		{Op: "bcast", Alg: "segmented", NP: np, Bytes: 1 << 20, NsPerOp: 1e6},
	}}
}

func vcollRec(np int, ratio float64) *Result[VcollBenchRow] {
	return &Result[VcollBenchRow]{Rows: []VcollBenchRow{
		{Op: "reduce_scatter", Alg: "classic", NP: np, Bytes: 1 << 20, NsPerOp: 1e6 * ratio},
		{Op: "reduce_scatter", Alg: "ring", NP: np, Bytes: 1 << 20, NsPerOp: 1e6},
	}}
}

func rmaRec(bytes int, ratio float64) *Result[RmaBenchRow] {
	return &Result[RmaBenchRow]{Rows: []RmaBenchRow{
		{Op: "sendrecv", NP: 2, Bytes: bytes, NsPerOp: 1e6 * ratio},
		{Op: "put", NP: 2, Bytes: bytes, NsPerOp: 1e6},
	}}
}

func TestRatioGates(t *testing.T) {
	cases := []struct {
		name string
		err  error
		pass bool
	}{
		// A baseline compared with itself passes; below baseline·0.8 fails.
		{"coll self", CollGate(collRec(4, 1.5), collRec(4, 1.5)), true},
		{"coll 1.21 vs 1.5", CollGate(collRec(4, 1.21), collRec(4, 1.5)), true},
		{"coll 1.19 vs 1.5", CollGate(collRec(4, 1.19), collRec(4, 1.5)), false},
		{"vcoll self", VcollGate(vcollRec(4, 1.5), vcollRec(4, 1.5)), true},
		{"vcoll 1.21 vs 1.5", VcollGate(vcollRec(4, 1.21), vcollRec(4, 1.5)), true},
		{"vcoll 1.19 vs 1.5", VcollGate(vcollRec(4, 1.19), vcollRec(4, 1.5)), false},
		{"rma self", RmaGate(rmaRec(64<<10, 0.9), rmaRec(64<<10, 0.9)), true},
		{"rma 0.73 vs 0.9", RmaGate(rmaRec(64<<10, 0.73), rmaRec(64<<10, 0.9)), true},
		{"rma 0.71 vs 0.9", RmaGate(rmaRec(64<<10, 0.71), rmaRec(64<<10, 0.9)), false},
		// The requirement is capped: 2.0x for coll and vcoll, 1.0x for rma.
		{"coll self 3.0", CollGate(collRec(4, 3.0), collRec(4, 3.0)), true},
		{"coll 2.05 vs 3.0", CollGate(collRec(4, 2.05), collRec(4, 3.0)), true},
		{"coll 1.95 vs 3.0", CollGate(collRec(4, 1.95), collRec(4, 3.0)), false},
		{"vcoll 2.05 vs 3.0", VcollGate(vcollRec(4, 2.05), vcollRec(4, 3.0)), true},
		{"vcoll 1.95 vs 3.0", VcollGate(vcollRec(4, 1.95), vcollRec(4, 3.0)), false},
		{"rma 1.05 vs 1.5", RmaGate(rmaRec(64<<10, 1.05), rmaRec(64<<10, 1.5)), true},
		{"rma 0.95 vs 1.5", RmaGate(rmaRec(64<<10, 0.95), rmaRec(64<<10, 1.5)), false},
		// No configuration in common is an error, not a vacuous pass.
		{"coll disjoint", CollGate(collRec(8, 3), collRec(4, 3)), false},
		{"vcoll disjoint", VcollGate(vcollRec(8, 3), vcollRec(4, 3)), false},
		{"rma disjoint", RmaGate(rmaRec(4<<10, 3), rmaRec(64<<10, 3)), false},
	}
	for _, c := range cases {
		if (c.err == nil) != c.pass {
			t.Errorf("%s: err = %v, want pass = %v", c.name, c.err, c.pass)
		}
	}
}

func TestLatencyGates(t *testing.T) {
	ft := func(np int, ns float64) *Result[FTBenchRow] {
		return &Result[FTBenchRow]{Rows: []FTBenchRow{{Op: "shrink", NP: np, NsPerOp: ns}}}
	}
	el := func(np int, ns float64) *Result[ElasticBenchRow] {
		return &Result[ElasticBenchRow]{Rows: []ElasticBenchRow{{Op: "detect", NP: np, NsPerOp: ns}}}
	}
	cases := []struct {
		base, cur float64 // ns
		pass      bool
	}{
		{2e3, 2e3, true},      // a baseline compared with itself
		{2e3, 10e6, true},     // a 2 µs baseline allows up to the 10 ms floor
		{2e3, 10.1e6, false},  // ... and no further
		{5e6, 14.9e6, true},   // above the floor the limit is 3x
		{5e6, 15.1e6, false},  // ... and 3x is the limit
		{20e6, 20e6, true},    // a slow baseline compared with itself
		{20e6, 60.1e6, false}, // 3x above a baseline past the floor fails
	}
	for _, c := range cases {
		if err := FTGate(ft(4, c.cur), ft(4, c.base)); (err == nil) != c.pass {
			t.Errorf("ft baseline %.0fns measured %.0fns: err = %v, want pass = %v", c.base, c.cur, err, c.pass)
		}
		if err := ElasticGate(el(4, c.cur), el(4, c.base)); (err == nil) != c.pass {
			t.Errorf("elastic baseline %.0fns measured %.0fns: err = %v, want pass = %v", c.base, c.cur, err, c.pass)
		}
	}
	if FTGate(ft(8, 1), ft(4, 1)) == nil {
		t.Error("ft: disjoint configurations passed")
	}
	if ElasticGate(el(8, 1), el(4, 1)) == nil {
		t.Error("elastic: disjoint configurations passed")
	}
}

// roundTrip decodes a committed BENCH file through Result[R] and checks
// it re-marshals byte-identical, so a full run's record keeps the format.
func roundTrip[R any](t *testing.T, name string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	var res Result[R]
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(res.Rows) == 0 {
		t.Errorf("%s: no rows decoded", name)
	}
	out, err := res.Marshal()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if string(out) != string(raw) {
		t.Errorf("%s does not re-marshal byte-identical (%d bytes in, %d out)", name, len(raw), len(out))
	}
}

func TestCommittedRecordsRoundTrip(t *testing.T) {
	roundTrip[CollBenchRow](t, "BENCH_coll.json")
	roundTrip[VcollBenchRow](t, "BENCH_vcoll.json")
	roundTrip[FTBenchRow](t, "BENCH_ft.json")
	roundTrip[ProfBenchRow](t, "BENCH_prof.json")
	roundTrip[RmaBenchRow](t, "BENCH_rma.json")
	roundTrip[ElasticBenchRow](t, "BENCH_elastic.json")
	roundTrip[TypedBenchRow](t, "BENCH_typed.json")
}

// A failing rank must abort its peers: rank 1 waits in Recv for a
// message rank 0 never sends, and the job still returns rank 0's error.
func TestRunJobFailureAbortsPeer(t *testing.T) {
	boom := errors.New("rank 0 fails")
	done := make(chan error, 1)
	go func() {
		opts := func(int) []device.Option { return eagerOpts(1 << 10) }
		done <- runJobOn(2, chanEndpoints(2), opts, func(w *core.Comm) error {
			if w.Rank() == 0 {
				return boom
			}
			_, err := w.Recv(make([]byte, 8), 0, 8, core.Byte, 0, 0)
			return err
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("job error = %v, want rank 0's %v", err, boom)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job still blocked 10s after rank 0 failed: the peer was not aborted")
	}
}
