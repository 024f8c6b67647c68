package main

import (
	"bytes"
	"time"

	"mpj"
	"mpj/internal/core"
	"mpj/internal/transport"
)

const (
	pingMin = 8
	pingMax = 256 << 10
	pingTag = 1
)

// pingpongBench is two-sided round trips over a loopback TCP mesh: rank 0
// sends a seeded pattern, rank 1 echoes it. Sizes are drawn log-uniformly
// from 8 B to 256 KiB, so the mix crosses the device's eager limit.
type pingpongBench struct {
	sizes   []int
	pattern []byte // 2*pingMax seeded bytes; op i sends a window of it
	buf     [2][]byte
	ser     []byte
	kernelClock
	corruptOp int
}

func newPingpong(cfg config) bench {
	rng := newRand(cfg.seed)
	b := &pingpongBench{sizes: logMix(rng, pingMin, pingMax, 1), corruptOp: cfg.corruptOp}
	b.pattern = make([]byte, 2*pingMax)
	for k := range b.pattern {
		b.pattern[k] = byte(rng.Uint32())
	}
	b.buf = [2][]byte{make([]byte, pingMax), make([]byte, pingMax)}
	b.ser = make([]byte, pingMax)
	return b
}

func (b *pingpongBench) device() transport.DeviceName { return transport.DeviceTCP }
func (b *pingpongBench) cycle() int                   { return mixLen }
func (b *pingpongBench) elem() core.Datatype          { return core.Byte }
func (b *pingpongBench) kernelInOp() bool             { return false }
func (b *pingpongBench) n(i int) int                  { return b.sizes[i%len(b.sizes)] }
func (b *pingpongBench) payload(i int) int            { return 2 * b.n(i) }
func (b *pingpongBench) flops(int) float64            { return 0 }
func (b *pingpongBench) bytes(i int) float64          { return 2 * float64(b.n(i)) }

func (b *pingpongBench) traffic(i int) []xfer {
	return []xfer{{fromRank0, b.n(i)}, {fromRank1, b.n(i)}}
}

// want is the payload of op i.
func (b *pingpongBench) want(i int) []byte {
	off := (i * 4099) % pingMax
	return b.pattern[off : off+b.n(i)]
}

func (b *pingpongBench) step(r int, c *core.Comm, i int, tr *tracer) (int64, bool, error) {
	n := b.n(i)
	buf := b.buf[r][:n]
	if r == 1 {
		// Echo first and check afterwards, so the check stays out of
		// rank 0's round trip.
		t0 := time.Now()
		_, err := mpj.Recv(c, buf, 0, pingTag)
		t1 := time.Now()
		if err != nil {
			return 0, false, err
		}
		if i == b.corruptOp {
			buf[n/2] ^= 0xff
		}
		err = mpj.Send(c, buf, 0, pingTag)
		t2 := time.Now()
		ok := bytes.Equal(buf, b.want(i))
		t3 := time.Now()
		if tr != nil {
			op := tr.add("op", t0, t3, -1, i)
			tr.add("mpj.recv", t0, t1, op, i)
			tr.add("mpj.send", t1, t2, op, i)
			tr.add("kernel.check", t2, t3, op, i)
		}
		return 0, ok, err
	}
	t0 := time.Now()
	copy(buf, b.want(i))
	t1 := time.Now()
	err := mpj.Send(c, buf, 1, pingTag)
	t2 := time.Now()
	if err == nil {
		_, err = mpj.Recv(c, buf, 1, pingTag)
	}
	t3 := time.Now()
	ok := err == nil && bytes.Equal(buf, b.want(i))
	t4 := time.Now()
	b.kernel += int64(t1.Sub(t0) + t4.Sub(t3))
	if tr != nil {
		op := tr.add("op", t0, t4, -1, i)
		tr.add("kernel.fill", t0, t1, op, i)
		tr.add("mpj.send", t1, t2, op, i)
		tr.add("mpj.recv", t2, t3, op, i)
		tr.add("kernel.check", t3, t4, op, i)
	}
	return int64(t3.Sub(t1)), ok, err
}

func (b *pingpongBench) comm(l layer, r int, c *core.Comm, i int) error {
	buf := b.buf[r][:b.n(i)]
	peer := 1 - r
	send := func() error {
		if l == layerMPJ {
			return mpj.Send(c, buf, peer, pingTag)
		}
		return c.Send(buf, 0, len(buf), core.Byte, peer, pingTag)
	}
	recv := func() error {
		var err error
		if l == layerMPJ {
			_, err = mpj.Recv(c, buf, peer, pingTag)
		} else {
			_, err = c.Recv(buf, 0, len(buf), core.Byte, peer, pingTag)
		}
		return err
	}
	if r == 0 {
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

// serial is the round trip without messages: fill, echo as a copy, check.
func (b *pingpongBench) serial(i int) bool {
	want := b.want(i)
	buf := b.buf[0][:len(want)]
	copy(buf, want)
	echo := b.ser[:len(want)]
	copy(echo, buf)
	return bytes.Equal(echo, want)
}

func (b *pingpongBench) finish(*world) (int, error) { return 0, nil }
