package main

import (
	"fmt"
	"math"
	"time"

	"mpj"
	"mpj/internal/core"
	"mpj/internal/transport"
)

// The halo workload's strip: haloRows interior rows of haloCols columns
// per rank. The strip is thin on purpose: at 8 rows the halo exchange and
// the convergence Allreduce are a large share of a step, while at 64 rows
// the sweep would hide them.
const (
	haloCols = 1024
	haloRows = 8
	haloTag  = 7
	gridTag  = 8
	hot      = 100.0
)

// haloBench is a heat2d-style 2-D Jacobi strip split by rows over two
// co-located ranks of the hyb device. A step posts the halo rows, sweeps
// the rows that need no halo, waits, sweeps the two edge rows and checks
// convergence with an 8-byte Allreduce(MAX). The seed sets the starting
// temperatures; rank 0's top halo row is a fixed hot boundary and rank
// 1's bottom halo row a fixed cold one.
type haloBench struct {
	cur, next [2][]float64 // (haloRows+2) x haloCols per rank, row-major
	scratch   [2][]float64 // buffers for communication-only replays
	in, out   [2][]float64 // the convergence Allreduce
	reqs      [2][]*core.Request
	steps     [2]int    // steps done on each rank over the whole run
	gmax      []float64 // rank 0's Allreduce result per step
	// The serial reference: the whole grid, both strips plus both
	// boundary rows, stepped by one goroutine.
	start, grid, gridNext []float64
	serialMax             []float64
	serialSteps           int
	kernelClock
	corruptOp int
}

func newHalo(cfg config) bench {
	rng := newRand(cfg.seed)
	rowsAll := 2*haloRows + 2
	b := &haloBench{
		grid:      make([]float64, rowsAll*haloCols),
		gridNext:  make([]float64, rowsAll*haloCols),
		gmax:      make([]float64, 0, 1<<19),
		corruptOp: cfg.corruptOp,
	}
	for j := 0; j < haloCols; j++ {
		b.grid[j], b.gridNext[j] = hot, hot
	}
	for k := haloCols; k < (rowsAll-1)*haloCols; k++ {
		b.grid[k] = hot * rng.Float64()
	}
	b.start = append([]float64(nil), b.grid...)
	copy(b.gridNext, b.grid)
	for r := range b.cur {
		n := (haloRows + 2) * haloCols
		b.cur[r], b.next[r], b.scratch[r] = make([]float64, n), make([]float64, n), make([]float64, n)
		// Rank r's rows 0..haloRows+1 are grid rows r*haloRows ... .
		copy(b.cur[r], b.grid[r*haloRows*haloCols:])
		copy(b.next[r], b.cur[r])
		b.in[r], b.out[r] = make([]float64, 1), make([]float64, 1)
		b.reqs[r] = make([]*core.Request, 2)
	}
	return b
}

func (b *haloBench) device() transport.DeviceName { return transport.DeviceHyb }
func (b *haloBench) cycle() int                   { return 1 }
func (b *haloBench) elem() core.Datatype          { return core.Double }
func (b *haloBench) kernelInOp() bool             { return true }
func (b *haloBench) payload(int) int              { return 2*8*haloCols + 2*8 }

func (b *haloBench) traffic(int) []xfer {
	return []xfer{{exchange, 8 * haloCols}, {exchange, 8}}
}

// Five flops per updated point (three adds, a multiply, a subtract); the
// sweep reads the slab with its halo rows and writes the interior.
func (b *haloBench) flops(int) float64 { return 5 * 2 * haloRows * (haloCols - 2) }
func (b *haloBench) bytes(int) float64 { return 8 * 2 * float64((2*haloRows+2)*haloCols) }

// relaxRows applies one Jacobi update to rows lo..hi of an n-column slab
// and returns the largest change it made. The serial reference and the
// ranks call this same function, so their results match bit for bit.
func relaxRows(cur, next []float64, n, lo, hi int) float64 {
	var m float64
	for i := lo; i <= hi; i++ {
		for j := 1; j < n-1; j++ {
			idx := i*n + j
			v := 0.25 * (cur[idx-n] + cur[idx+n] + cur[idx-1] + cur[idx+1])
			if d := math.Abs(v - cur[idx]); d > m {
				m = d
			}
			next[idx] = v
		}
		next[i*n] = cur[i*n]
		next[i*n+n-1] = cur[i*n+n-1]
	}
	return m
}

// haloRowsOf returns the row rank r receives into and the row it sends.
func haloRowsOf(slab []float64, r int) (recv, send []float64) {
	if r == 0 {
		return slab[(haloRows+1)*haloCols:], slab[haloRows*haloCols : (haloRows+1)*haloCols]
	}
	return slab[:haloCols], slab[haloCols : 2*haloCols]
}

func (b *haloBench) step(r int, c *core.Comm, i int, tr *tracer) (int64, bool, error) {
	cur, next := b.cur[r], b.next[r]
	peer := 1 - r
	if r == 1 && b.steps[r] == b.corruptOp {
		cur[haloCols+haloCols/2]++
	}
	recvRow, sendRow := haloRowsOf(cur, r)
	t0 := time.Now()
	rr, err := mpj.Irecv(c, recvRow, peer, haloTag)
	if err != nil {
		return 0, false, fmt.Errorf("halo Irecv: %w", err)
	}
	sr, err := mpj.Isend(c, sendRow, peer, haloTag)
	if err != nil {
		return 0, false, fmt.Errorf("halo Isend: %w", err)
	}
	t1 := time.Now()
	m := relaxRows(cur, next, haloCols, 2, haloRows-1)
	t2 := time.Now()
	b.reqs[r][0], b.reqs[r][1] = rr, sr
	if _, err := mpj.WaitAll(b.reqs[r]); err != nil {
		return 0, false, fmt.Errorf("halo WaitAll: %w", err)
	}
	t3 := time.Now()
	m = max(m, relaxRows(cur, next, haloCols, 1, 1), relaxRows(cur, next, haloCols, haloRows, haloRows))
	b.cur[r], b.next[r] = next, cur
	t4 := time.Now()
	b.in[r][0] = m
	if err := mpj.Allreduce(c, b.in[r], b.out[r], mpj.Max[float64]()); err != nil {
		return 0, false, fmt.Errorf("convergence Allreduce: %w", err)
	}
	t5 := time.Now()
	b.steps[r]++
	if r == 0 {
		b.gmax = append(b.gmax, b.out[r][0])
		b.kernel += int64(t2.Sub(t1) + t4.Sub(t3))
	}
	if tr != nil {
		op := tr.add("op", t0, t5, -1, i)
		tr.add("mpj.post", t0, t1, op, i)
		tr.add("kernel.interior", t1, t2, op, i)
		tr.add("mpj.waitall", t2, t3, op, i)
		tr.add("kernel.edge", t3, t4, op, i)
		tr.add("mpj.allreduce", t4, t5, op, i)
	}
	// The step's result is verified against the serial reference in finish.
	return int64(t5.Sub(t0)), true, nil
}

func (b *haloBench) comm(l layer, r int, c *core.Comm, i int) error {
	slab := b.scratch[r]
	peer := 1 - r
	recvRow, sendRow := haloRowsOf(slab, r)
	var rr, sr *core.Request
	var err error
	if l == layerMPJ {
		if rr, err = mpj.Irecv(c, recvRow, peer, haloTag); err == nil {
			sr, err = mpj.Isend(c, sendRow, peer, haloTag)
		}
	} else {
		recvOff, sendOff := (haloRows+1)*haloCols, haloRows*haloCols
		if r == 1 {
			recvOff, sendOff = 0, haloCols
		}
		if rr, err = c.Irecv(slab, recvOff, haloCols, core.Double, peer, haloTag); err == nil {
			sr, err = c.Isend(slab, sendOff, haloCols, core.Double, peer, haloTag)
		}
	}
	if err != nil {
		return err
	}
	b.reqs[r][0], b.reqs[r][1] = rr, sr
	if _, err := core.WaitAll(b.reqs[r]); err != nil {
		return err
	}
	if l == layerMPJ {
		return mpj.Allreduce(c, b.in[r], b.out[r], mpj.Max[float64]())
	}
	return c.Allreduce(b.in[r], 0, b.out[r], 0, 1, core.Double, core.MaxOp)
}

// serial advances the whole-grid reference by one step.
func (b *haloBench) serial(int) bool {
	m := relaxRows(b.grid, b.gridNext, haloCols, 1, 2*haloRows)
	b.grid, b.gridNext = b.gridNext, b.grid
	b.serialMax = append(b.serialMax, m)
	b.serialSteps++
	return true
}

// finish gathers rank 1's strip to rank 0 and compares the gathered grid
// and every step's Allreduce result with a serial run of the same number
// of steps from the same start. Each step whose maximum differs is a
// failed op; a wrong final grid with no such step counts as one.
func (b *haloBench) finish(w *world) (int, error) {
	if b.steps[0] != b.steps[1] {
		return 0, fmt.Errorf("ranks ran %d and %d steps", b.steps[0], b.steps[1])
	}
	strip := make([]float64, haloRows*haloCols)
	err := w.both(func(r int) error {
		if r == 1 {
			return mpj.Send(w.comms[1], b.cur[1][haloCols:(haloRows+1)*haloCols], 0, gridTag)
		}
		_, err := mpj.Recv(w.comms[0], strip, 1, gridTag)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("gathering the grid: %w", err)
	}
	b.resetSerial()
	for b.serialSteps < b.steps[0] {
		b.serial(0)
	}
	failed := 0
	for k, m := range b.gmax {
		if m != b.serialMax[k] {
			failed++
		}
	}
	n := haloRows * haloCols
	same := equalBits(b.cur[0][haloCols:haloCols+n], b.grid[haloCols:haloCols+n]) &&
		equalBits(strip, b.grid[haloCols+n:haloCols+2*n])
	if !same && failed == 0 {
		failed = 1
	}
	return failed, nil
}

// resetSerial rewinds the serial reference to the seeded start, which the
// ranks' slabs held before their first step.
func (b *haloBench) resetSerial() {
	b.serialMax = b.serialMax[:0]
	b.serialSteps = 0
	copy(b.grid, b.start)
	copy(b.gridNext, b.start)
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}
