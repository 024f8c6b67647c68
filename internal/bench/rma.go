package bench

import (
	"fmt"
	"time"

	"mpj/internal/core"
)

// The RMA experiment: one-sided Put/Get/Accumulate against the two-sided
// Send/Recv baseline on the hyb device, 4 KiB to 4 MiB. Each one-sided
// iteration is one data operation plus the fence that completes it, so
// the numbers price the full epoch, not just the copy; the baseline is
// the matching blocking Send/Recv pair. On co-located ranks the data op
// is a literal memmove into the target window (the wire path carries only
// the fence syncs), so the large-payload ratios document the zero-
// serialization win the window design claims. The recorded table
// (BENCH_rma.json) backs the CI smoke: the -quick run re-measures the
// 64 KiB subset and fails when the Put-vs-Send/Recv ratio falls more than
// 20% below the committed value (capped at 1.0x, like the COLL gate, so
// a core-starved runner showing one-sided >= two-sided never flakes).

// RmaBenchRow is one measured configuration, recorded in BENCH_rma.json.
type RmaBenchRow struct {
	Op      string  `json:"op"` // "put" | "get" | "acc" | "sendrecv"
	NP      int     `json:"np"`
	Bytes   int     `json:"bytes"`
	NsPerOp float64 `json:"ns_per_op"`
	MiBps   float64 `json:"mib_per_s"`
}

// measureRma times one operation at one payload size on a 2-rank hyb
// job: rank 0 is the origin (and the measuring rank), rank 1 the target.
func measureRma(op string, bytes int) (RmaBenchRow, error) {
	row := RmaBenchRow{Op: op, NP: 2, Bytes: bytes}
	elems := bytes / 8
	iters := collIters(bytes)
	const tag = 13
	err := runJobHyb(2, func(w *core.Comm) error {
		buf := make([]float64, elems)
		for i := range buf {
			buf[i] = float64(w.Rank() + i)
		}
		var body func() error
		var win *core.Win
		if op == "sendrecv" {
			if w.Rank() == 0 {
				body = func() error { return w.Send(buf, 0, elems, core.Double, 1, tag) }
			} else {
				body = func() error { _, err := w.Recv(buf, 0, elems, core.Double, 0, tag); return err }
			}
		} else {
			var err error
			if win, err = w.WinCreate(buf, 1); err != nil {
				return err
			}
			defer win.Free()
			var data func() error
			switch op {
			case "put":
				data = func() error { return win.Put(buf, 0, elems, core.Double, 1, 0) }
			case "get":
				data = func() error { return win.Get(buf, 0, elems, core.Double, 1, 0) }
			case "acc":
				data = func() error { return win.Accumulate(buf, 0, elems, core.Double, 1, 0, core.SumOp) }
			}
			if w.Rank() == 0 {
				body = func() error {
					if err := data(); err != nil {
						return err
					}
					return win.Fence()
				}
			} else {
				body = win.Fence // the target only participates in the epoch
			}
		}
		return timeOnRank0(w, 1, iters, bytes, body, &row.NsPerOp, &row.MiBps)
	})
	return row, err
}

// RmaSweep generates the one-sided vs two-sided table and its JSON
// record. The quick run re-measures the 64 KiB put/sendrecv pair plus the
// get point, for the CI smoke gate.
func RmaSweep(quick bool) (*Table, *Result[RmaBenchRow], error) {
	sizes := []int{4 << 10, 64 << 10, 1 << 20, 4 << 20}
	ops := []string{"sendrecv", "put", "get", "acc"}
	if quick {
		sizes = []int{64 << 10}
		ops = []string{"sendrecv", "put", "get"}
	}
	res := &Result[RmaBenchRow]{
		Experiment: "rma",
		Device:     "hyb",
		Note: "float64 payloads, np=2 co-located hyb ranks, min of 3 reps. One-sided rows price " +
			"one Put/Get/Accumulate plus the completing Fence (the full epoch); sendrecv is the " +
			"matching blocking two-sided pair. Co-located data ops are memmoves — only the fence " +
			"syncs touch the wire — so the large-payload put/sendrecv ratio is the zero-" +
			"serialization claim. That ratio per size is the CI regression baseline for " +
			"mpjbench -exp rma -quick",
	}
	t := &Table{
		Title:   "RMA: one-sided vs two-sided (hyb device, np=2)",
		Headers: []string{"op", "bytes", "ns/op", "MiB/s", "vs sendrecv"},
	}
	baseNs := map[int]float64{}
	for _, bytes := range sizes {
		for _, op := range ops {
			r, err := measureRma(op, bytes)
			if err != nil {
				return nil, nil, fmt.Errorf("rma %s bytes=%d: %w", op, bytes, err)
			}
			res.Rows = append(res.Rows, r)
			ratio := ""
			if op == "sendrecv" {
				baseNs[bytes] = r.NsPerOp
			} else if base, ok := baseNs[bytes]; ok && r.NsPerOp > 0 {
				ratio = fmt.Sprintf("%.2fx", base/r.NsPerOp)
			}
			t.Rows = append(t.Rows, Row{
				op, fmtSize(bytes), fmtDur(time.Duration(r.NsPerOp)),
				fmt.Sprintf("%.0f", r.MiBps), ratio,
			})
		}
	}
	return t, res, nil
}

// rmaRatios indexes put-vs-sendrecv ns/op ratios by payload size.
func rmaRatios(res *Result[RmaBenchRow]) map[string]float64 {
	base := map[int]float64{}
	put := map[int]float64{}
	for _, r := range res.Rows {
		switch r.Op {
		case "sendrecv":
			base[r.Bytes] = r.NsPerOp
		case "put":
			put[r.Bytes] = r.NsPerOp
		}
	}
	out := map[string]float64{}
	for bytes, bns := range base {
		if pns, ok := put[bytes]; ok && pns > 0 {
			out[fmt.Sprintf("put/%d", bytes)] = bns / pns
		}
	}
	return out
}

// RmaGate is the -quick regression gate against BENCH_rma.json: each
// put-vs-sendrecv ratio must stay within 20% of the baseline's, the
// requirement capped at 1.0x (one-sided at least matches two-sided).
func RmaGate(cur, base *Result[RmaBenchRow]) error {
	return compareRatios(rmaRatios(cur), rmaRatios(base), 0.2, 1.0)
}
