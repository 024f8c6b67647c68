package main

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"sync/atomic"
	"syscall"
	"time"
)

// stepFunc runs op i on one rank. On rank 0 it returns the op's latency;
// ok reports whether the op's output verified.
type stepFunc func(i int) (ns int64, ok bool, err error)

// loopResult is one closed-loop phase, timed from rank 0.
type loopResult struct {
	first  int // index of the phase's first op
	ops    int
	failed int
	lat    []int64 // rank 0 per-op latency, ns
	wall   time.Duration
	// Process-wide resource use over the phase, both ranks together.
	allocBytes, mallocs uint64
	gcCycles            uint32
	cpu                 time.Duration
	// allocAt holds the process's cumulative heap allocation as rank 0
	// read it before op first+k*allocEvery, for k = 0, 1, ...
	allocAt []uint64
}

// closedLoop runs the two ranks in lock step, from op first on, until rank
// 0 has spent dur and completed at least minOps ops. Rank 0 decides when to stop: on the
// op that crosses the deadline it publishes the final op count before
// starting that op. Rank 1 cannot finish op i before rank 0 has started
// it (every op needs rank 0's message), so it always reads the final
// count before deciding to start op i+1. When allocEvery is positive,
// rank 0 also samples the heap allocation count every allocEvery ops.
func closedLoop(abort func(), first int, dur time.Duration, minOps, allocEvery int, lat []int64, steps [2]stepFunc) (loopResult, error) {
	var limit atomic.Int64
	limit.Store(math.MaxInt64)
	res := loopResult{first: first, lat: lat[:0]}
	// runtime/metrics reads the count without stopping the world; it lags
	// by at most one cached span per size class, which windows of
	// thousands of ops absorb.
	sample := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	if allocEvery > 0 {
		res.allocAt = make([]uint64, 0, cap(lat)/allocEvery+2)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	var failed1 int // rank 1's failed verifications, read after both return
	start := time.Now()
	err := runBoth(abort, func(r int) error {
		for i := first; int64(i) < limit.Load(); i++ {
			if r == 0 && i-first >= minOps && time.Since(start) >= dur {
				limit.Store(int64(i + 1))
			}
			if r == 0 && allocEvery > 0 && (i-first)%allocEvery == 0 {
				rtmetrics.Read(sample)
				res.allocAt = append(res.allocAt, sample[0].Value.Uint64())
			}
			ns, ok, err := steps[r](i)
			if err != nil {
				return err
			}
			if r == 0 {
				res.lat = append(res.lat, ns)
				res.ops++
				if !ok {
					res.failed++
				}
			} else if !ok {
				failed1++
			}
		}
		return nil
	})
	res.wall = time.Since(start)
	// Each rank verifies its own output; the sum is capped at the op count.
	res.failed = min(res.failed+failed1, res.ops)
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.gcCycles = m1.NumGC - m0.NumGC
	return res, err
}

func (r loopResult) busy() time.Duration {
	var s int64
	for _, ns := range r.lat {
		s += ns
	}
	return time.Duration(s)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is left unchanged.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return float64(s[len(s)-1])
	}
	frac := pos - float64(lo)
	return float64(s[lo])*(1-frac) + float64(s[lo+1])*frac
}

func median(xs []int64) float64 { return quantile(xs, 0.5) }
