package main

import (
	"time"

	"mpj"
	"mpj/internal/core"
	"mpj/internal/transport"
)

// allreduceBench is data-parallel gradient averaging: each op is one
// Allreduce(SUM) of a float64 bucket on the in-process chan device, with
// bucket sizes drawn log-uniformly between 4 KiB and 2 MiB.
type allreduceBench struct {
	counts     []int // elements per op
	send, recv [2][]float64
	ser        [3][]float64 // serial: rank 0 input, rank 1 input, sum
	kernelClock
	corruptOp int
}

func newAllreduce(cfg config) bench {
	b := &allreduceBench{counts: logMix(newRand(cfg.seed), 4<<10, 2<<20, 8), corruptOp: cfg.corruptOp}
	for k := range b.counts {
		b.counts[k] /= 8
	}
	for r := range b.send {
		b.send[r] = make([]float64, 2<<20/8)
		b.recv[r] = make([]float64, 2<<20/8)
	}
	for k := range b.ser {
		b.ser[k] = make([]float64, 2<<20/8)
	}
	return b
}

func (b *allreduceBench) device() transport.DeviceName { return transport.DeviceChan }
func (b *allreduceBench) cycle() int                   { return mixLen }
func (b *allreduceBench) elem() core.Datatype          { return core.Double }
func (b *allreduceBench) kernelInOp() bool             { return false }
func (b *allreduceBench) n(i int) int                  { return b.counts[i%len(b.counts)] }
func (b *allreduceBench) payload(i int) int            { return 2 * 8 * b.n(i) }
func (b *allreduceBench) traffic(i int) []xfer         { return []xfer{{exchange, 8 * b.n(i)}} }
func (b *allreduceBench) flops(i int) float64          { return float64(b.n(i)) }
func (b *allreduceBench) bytes(i int) float64          { return 3 * 8 * float64(b.n(i)) }

// Rank r's element j in op i is a small integer, so every sum is exact
// and has a closed form.
func bucketVal(r, i, j int) float64 { return float64((i + 977*r + j) & 1023) }

func fillBucket(s []float64, r, i int) {
	for j := range s {
		s[j] = bucketVal(r, i, j)
	}
}

func checkSum(s []float64, i int) bool {
	for j, v := range s {
		if v != bucketVal(0, i, j)+bucketVal(1, i, j) {
			return false
		}
	}
	return true
}

func (b *allreduceBench) step(r int, c *core.Comm, i int, tr *tracer) (int64, bool, error) {
	n := b.n(i)
	s, d := b.send[r][:n], b.recv[r][:n]
	t0 := time.Now()
	fillBucket(s, r, i)
	t1 := time.Now()
	err := mpj.Allreduce(c, s, d, mpj.Sum[float64]())
	t2 := time.Now()
	if i == b.corruptOp && r == 0 {
		d[n/2]++
	}
	ok := err == nil && checkSum(d, i)
	t3 := time.Now()
	if r == 0 {
		b.kernel += int64(t1.Sub(t0) + t3.Sub(t2))
	}
	if tr != nil {
		op := tr.add("op", t0, t3, -1, i)
		tr.add("kernel.fill", t0, t1, op, i)
		tr.add("mpj.allreduce", t1, t2, op, i)
		tr.add("kernel.check", t2, t3, op, i)
	}
	return int64(t2.Sub(t1)), ok, err
}

func (b *allreduceBench) comm(l layer, r int, c *core.Comm, i int) error {
	n := b.n(i)
	if l == layerMPJ {
		return mpj.Allreduce(c, b.send[r][:n], b.recv[r][:n], mpj.Sum[float64]())
	}
	return c.Allreduce(b.send[r], 0, b.recv[r], 0, n, core.Double, core.SumOp)
}

func (b *allreduceBench) serial(i int) bool {
	n := b.n(i)
	s0, s1, d := b.ser[0][:n], b.ser[1][:n], b.ser[2][:n]
	fillBucket(s0, 0, i)
	fillBucket(s1, 1, i)
	for j := range d {
		d[j] = s0[j] + s1[j]
	}
	return checkSum(d, i)
}

func (b *allreduceBench) finish(*world) (int, error) { return 0, nil }
