package bench

import (
	"fmt"
	"time"

	"mpj/internal/core"
)

// The TYPED experiment: the same communication pattern driven through the
// typed generics facade and through the classic Datatype facade, measured
// for time and allocation per operation. Both facades share the datatype
// layer and the bulk fast paths, so the comparison isolates the per-call
// surface cost (interface boxing, argument processing); the absolute B/op
// numbers document that the 4 KiB float64 pingpong runs the pooled
// zero-copy path (low hundreds of bytes per op, not kilobytes).

// TypedBenchRow is one measured configuration, recorded in
// BENCH_typed.json.
type TypedBenchRow struct {
	Op         string  `json:"op"`    // "pingpong" | "allreduce"
	API        string  `json:"api"`   // "typed" | "datatype"
	Elems      int     `json:"elems"` // float64 elements per message
	Bytes      int     `json:"bytes"` // payload bytes per message
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp float64 `json:"b_per_op"`
}

// typedPingpong measures a rank0↔rank1 float64 round trip on the hyb
// device through one facade.
func typedPingpong(api string, elems, iters, reps int) (TypedBenchRow, error) {
	const tag = 9
	row := TypedBenchRow{Op: "pingpong", API: api, Elems: elems, Bytes: elems * 8}
	err := runJobHyb(2, func(w *core.Comm) error {
		buf := make([]float64, elems)
		for i := range buf {
			buf[i] = float64(i)
		}
		var send func() error
		var recv func() error
		peer := 1 - w.Rank()
		if api == "typed" {
			send = func() error { return core.TypedSend(w, buf, peer, tag) }
			recv = func() error { _, err := core.TypedRecv(w, buf, peer, tag); return err }
		} else {
			send = func() error { return w.Send(buf, 0, elems, core.Double, peer, tag) }
			recv = func() error { _, err := w.Recv(buf, 0, elems, core.Double, peer, tag); return err }
		}
		roundTrip := func() error {
			if w.Rank() == 0 {
				if err := send(); err != nil {
					return err
				}
				return recv()
			}
			if err := recv(); err != nil {
				return err
			}
			return send()
		}
		for i := 0; i < 5; i++ { // warm up pools and routes
			if err := roundTrip(); err != nil {
				return err
			}
		}
		if w.Rank() == 0 {
			ns, bpo, err := measureOnRank0(w, iters, reps, roundTrip)
			if err != nil {
				return err
			}
			row.NsPerOp, row.BytesPerOp = ns, bpo
			return nil
		}
		return runOther(w, iters, reps, roundTrip)
	})
	return row, err
}

// typedAllreduce measures a 4-rank float64 sum allreduce through one
// facade. The collectives share one schedule engine, so the two APIs
// should land within noise of each other.
func typedAllreduce(api string, elems, iters, reps int) (TypedBenchRow, error) {
	row := TypedBenchRow{Op: "allreduce", API: api, Elems: elems, Bytes: elems * 8}
	err := runJobHyb(4, func(w *core.Comm) error {
		in := make([]float64, elems)
		out := make([]float64, elems)
		for i := range in {
			in[i] = float64(w.Rank() + i)
		}
		var body func() error
		if api == "typed" {
			dt := core.DatatypeFor[float64]()
			body = func() error { return w.Allreduce(in, 0, out, 0, elems, dt, core.SumOp) }
		} else {
			body = func() error { return w.Allreduce(in, 0, out, 0, elems, core.Double, core.SumOp) }
		}
		for i := 0; i < 3; i++ {
			if err := body(); err != nil {
				return err
			}
		}
		if w.Rank() == 0 {
			ns, bpo, err := measureOnRank0(w, iters, reps, body)
			if err != nil {
				return err
			}
			row.NsPerOp, row.BytesPerOp = ns, bpo
			return nil
		}
		return runOther(w, iters, reps, body)
	})
	return row, err
}

// TypedCompare generates the typed-vs-Datatype facade table and its JSON
// record. The acceptance row is the 4 KiB (512 float64) pingpong: the
// typed facade must allocate less per op than the Datatype facade, and
// both must sit far below the payload size (bulk path engaged, frames
// pooled).
func TypedCompare(quick bool) (*Table, *Result[TypedBenchRow], error) {
	ppElems := []int{64, 512, 8192}
	arElems := []int{256, 4096}
	ppIters, arIters := 3000, 400
	if quick {
		ppElems = []int{512}
		arElems = []int{1024}
		ppIters, arIters = 600, 120
	}

	res := &Result[TypedBenchRow]{
		Experiment: "typed",
		Device:     "hyb",
		Note: "float64 payloads; B/op is process-wide allocation per operation across all ranks " +
			"of the in-process job (min of 3 reps). The typed collective wrappers deliberately share " +
			"the Datatype facade's schedule path, so the allreduce rows document parity; the pingpong " +
			"rows exercise the typed facade's distinct boxing-free path",
	}
	t := &Table{
		Title:   "TYPED: typed generics facade vs Datatype facade (hyb device, float64)",
		Headers: []string{"op", "elems", "bytes", "typed ns/op", "typed B/op", "datatype ns/op", "datatype B/op"},
	}

	for _, elems := range ppElems {
		iters := ppIters
		if elems >= 8192 {
			iters = ppIters / 4
		}
		tr, err := typedPingpong("typed", elems, iters, 3)
		if err != nil {
			return nil, nil, fmt.Errorf("typed pingpong %d: %w", elems, err)
		}
		dr, err := typedPingpong("datatype", elems, iters, 3)
		if err != nil {
			return nil, nil, fmt.Errorf("datatype pingpong %d: %w", elems, err)
		}
		res.Rows = append(res.Rows, tr, dr)
		t.Rows = append(t.Rows, Row{
			"pingpong", fmt.Sprintf("%d", elems), fmtSize(elems * 8),
			fmtDur(time.Duration(tr.NsPerOp)), fmt.Sprintf("%.0f", tr.BytesPerOp),
			fmtDur(time.Duration(dr.NsPerOp)), fmt.Sprintf("%.0f", dr.BytesPerOp),
		})
	}
	for _, elems := range arElems {
		tr, err := typedAllreduce("typed", elems, arIters, 3)
		if err != nil {
			return nil, nil, fmt.Errorf("typed allreduce %d: %w", elems, err)
		}
		dr, err := typedAllreduce("datatype", elems, arIters, 3)
		if err != nil {
			return nil, nil, fmt.Errorf("datatype allreduce %d: %w", elems, err)
		}
		res.Rows = append(res.Rows, tr, dr)
		t.Rows = append(t.Rows, Row{
			"allreduce", fmt.Sprintf("%d", elems), fmtSize(elems * 8),
			fmtDur(time.Duration(tr.NsPerOp)), fmt.Sprintf("%.0f", tr.BytesPerOp),
			fmtDur(time.Duration(dr.NsPerOp)), fmt.Sprintf("%.0f", dr.BytesPerOp),
		})
	}
	return t, res, nil
}
