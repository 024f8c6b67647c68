package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"mpj/internal/core"
	"mpj/internal/transport"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// corruptOp is the op on which a rank deliberately damages its output,
	// so tests can see the verification count it; -1 disables it.
	corruptOp int
	commit    string
}

// layer selects the API a communication replay goes through.
type layer int

const (
	layerMPJ  layer = iota // the typed generic API of package mpj
	layerCore              // the Datatype facade of internal/core
)

// xfer is one message of an op as the device sees it.
type xfer struct {
	dir int // fromRank0, fromRank1 or exchange (both ranks send n at once)
	n   int // payload bytes
}

const (
	fromRank0 = iota
	fromRank1
	exchange
)

// bench is one workload: two ranks running the same op sequence.
type bench interface {
	device() transport.DeviceName
	// cycle is the number of ops that make up a complete size mix.
	cycle() int
	// step runs op i on rank r: the workload's own code and its calls into
	// the mpj API. On rank 0 it returns the latency of the timed part; ok
	// reports whether the op's output verified on this rank. kernelNs
	// returns rank 0's time in the workload's own code since the last call.
	step(r int, c *core.Comm, i int, tr *tracer) (ns int64, ok bool, err error)
	kernelNs() int64
	// kernelInOp reports whether that time lies inside the timed part.
	kernelInOp() bool
	// comm runs only op i's communication on rank r, through layer l.
	comm(l layer, r int, c *core.Comm, i int) error
	// traffic lists op i's messages.
	traffic(i int) []xfer
	// payload is the user payload bytes rank 0 sends plus receives in op i.
	payload(i int) int
	// elem is the datatype of the payload, for the pack/unpack replay.
	elem() core.Datatype
	// serial does op i's computation in one goroutine without messages;
	// ok reports whether its output verified.
	serial(i int) bool
	// flops and bytes are the computed operation count and memory traffic
	// of op i's computation.
	flops(i int) float64
	bytes(i int) float64
	// finish verifies what can only be checked once the run is over and
	// returns the number of ops found wrong. It may communicate on w.
	finish(w *world) (failed int, err error)
}

// kernelClock accumulates rank 0's time in a workload's own code.
type kernelClock struct{ kernel int64 }

func (k *kernelClock) kernelNs() int64 {
	ns := k.kernel
	k.kernel = 0
	return ns
}

var workloads = []struct {
	name string
	make func(cfg config) bench
}{
	{"halo-hyb", newHalo},
	{"allreduce-chan", newAllreduce},
	{"pingpong-tcp", newPingpong},
}

func newBench(cfg config) (bench, error) {
	for _, w := range workloads {
		if w.name == cfg.workload {
			return w.make(cfg), nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, names)
}

// A size mix is mixBlocks blocks of mixLen sizes. mixLen is odd so that
// the median op falls inside one stratum rather than between two.
const (
	mixLen    = 129
	mixBlocks = 64
)

// logMix draws the sizes of a mix log-uniformly between lo and hi, each
// rounded down to a multiple of unit. Every block takes one size from each
// of mixLen equal strata of log(size), in shuffled order, so any block is
// a complete mix; drawing each block afresh averages the draws within a
// stratum over many blocks, which keeps a run's figures from depending on
// the few sizes one block happened to draw. The sizes and their order
// still come from the seed alone.
func logMix(rng *rand.Rand, lo, hi, unit int) []int {
	sizes := make([]int, 0, mixLen*mixBlocks)
	llo, lhi := math.Log(float64(lo)), math.Log(float64(hi))
	for range mixBlocks {
		block := make([]int, mixLen)
		for k := range block {
			u := (float64(k) + rng.Float64()) / mixLen
			n := int(math.Exp(llo+u*(lhi-llo))) / unit * unit
			block[k] = min(max(n, lo), hi)
		}
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		sizes = append(sizes, block...)
	}
	return sizes
}

func newRand(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x6d706a)) }
