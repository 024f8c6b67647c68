package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"mpj/internal/core"
	"mpj/internal/device"
	"mpj/internal/transport"
	"mpj/internal/wire"
)

// The layer replays re-run a workload's traffic one layer further down, so
// each layer's self time is its replay time minus the replay beneath it.

const (
	replayTag = 3
	// replayCtx is a device context that no communicator uses, so device
	// replays never match the communicators' traffic.
	replayCtx = 1 << 20
)

// runBoth runs f on rank 0 and rank 1 concurrently. A failing rank calls
// abort so that its peer cannot block forever.
func runBoth(abort func(), f func(r int) error) error {
	var errs [2]error
	var wg sync.WaitGroup
	for r := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[r] = f(r); errs[r] != nil {
				abort()
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs[:]...)
}

// maxMsg is the largest message in the workload's traffic.
func maxMsg(b bench) int {
	m := 0
	for i := 0; i < mixLen*mixBlocks; i++ {
		for _, x := range b.traffic(i) {
			m = max(m, x.n)
		}
	}
	return m
}

// sends reports whether rank r sends in x, and recvs whether it receives.
func (x xfer) sends(r int) bool { return x.dir == exchange || x.dir == r }
func (x xfer) recvs(r int) bool { return x.dir == exchange || x.dir != r }

// deviceReplay moves op i's messages with device Isend, Irecv and Wait.
type deviceReplay struct {
	b          bench
	w          *world
	sbuf, rbuf [2][]byte
}

func newDeviceReplay(b bench, w *world) *deviceReplay {
	d := &deviceReplay{b: b, w: w}
	n := maxMsg(b)
	for r := range d.sbuf {
		d.sbuf[r], d.rbuf[r] = make([]byte, n), make([]byte, n)
	}
	return d
}

func (d *deviceReplay) step(r, i int) error {
	dev := d.w.devs[r]
	for _, x := range d.b.traffic(i) {
		var rr, sr *device.Request
		var err error
		if x.recvs(r) {
			if rr, err = dev.Irecv(d.rbuf[r][:x.n], 1-r, replayTag, replayCtx); err != nil {
				return err
			}
		}
		if x.sends(r) {
			if sr, err = dev.Isend(d.sbuf[r][:x.n], 1-r, replayTag, replayCtx, device.ModeStandard); err != nil {
				return err
			}
			if _, err := sr.Wait(); err != nil {
				return err
			}
		}
		if rr != nil {
			if _, err := rr.Wait(); err != nil {
				return err
			}
		}
	}
	return nil
}

// transportReplay moves op i's messages as bare frames over a fresh mesh
// of the workload's device, the way the device frames them: one eager
// frame up to the eager limit, otherwise RTS, CTS and DATA.
type transportReplay struct {
	b       bench
	eps     [2]transport.Transport
	lns     []net.Listener
	inbox   [2]chan []byte
	done    chan struct{}
	stop    sync.Once
	payload []byte
	sendNs  int64 // rank 0's time inside Transport.Send
	sends   int64
}

func newTransportReplay(b bench) (*transportReplay, error) {
	eps, lns, err := newMesh(b.device())
	if err != nil {
		return nil, err
	}
	t := &transportReplay{b: b, eps: eps, lns: lns, done: make(chan struct{}), payload: make([]byte, maxMsg(b))}
	for r, ep := range eps {
		// At most three frames of one message are in flight per rank.
		t.inbox[r] = make(chan []byte, 4)
		ep.SetHandler(func(src int, frame []byte) {
			select {
			case t.inbox[r] <- frame:
			case <-t.done:
			}
		})
	}
	for r, ep := range eps {
		if err := ep.Start(); err != nil {
			t.close()
			return nil, fmt.Errorf("starting rank %d: %w", r, err)
		}
	}
	return t, nil
}

func (t *transportReplay) abort() {
	t.stop.Do(func() { close(t.done) })
}

func (t *transportReplay) close() {
	t.abort()
	for _, ep := range t.eps {
		ep.Close()
	}
	closeAll(t.lns)
}

func (t *transportReplay) send(r int, kind wire.Kind, n int, payload []byte) error {
	h := wire.Header{Kind: kind, Src: int32(r), Tag: replayTag, Context: replayCtx, Len: int32(n)}
	frame := wire.NewFrame(&h, payload)
	t0 := time.Now()
	err := t.eps[r].Send(1-r, frame)
	if r == 0 {
		t.sendNs += int64(time.Since(t0))
		t.sends++
	}
	return err
}

func (t *transportReplay) step(r, i int) error {
	for _, x := range t.b.traffic(i) {
		send, recv := x.sends(r), x.recvs(r)
		eager := x.n <= device.DefaultEagerLimit
		if send {
			var err error
			if eager {
				err, send = t.send(r, wire.KindEager, x.n, t.payload[:x.n]), false
			} else {
				err = t.send(r, wire.KindRTS, x.n, nil)
			}
			if err != nil {
				return err
			}
		}
		for send || recv {
			var frame []byte
			select {
			case frame = <-t.inbox[r]:
			case <-t.done:
				return errors.New("transport replay aborted")
			}
			kind := wire.Kind(frame[0])
			wire.PutBuf(frame)
			var err error
			switch kind {
			case wire.KindEager, wire.KindData:
				recv = false
			case wire.KindRTS:
				err = t.send(r, wire.KindCTS, x.n, nil)
			case wire.KindCTS:
				err, send = t.send(r, wire.KindData, x.n, t.payload[:x.n]), false
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// allreduceReplay is Allreduce(op) of float64s through the Datatype
// facade; op i reduces count(i) elements, at most n.
type allreduceReplay struct {
	w          *world
	count      func(i int) int
	op         *core.Op
	send, recv [2][]float64
}

func newAllreduceReplay(w *world, n int, count func(i int) int, op *core.Op) *allreduceReplay {
	a := &allreduceReplay{w: w, count: count, op: op}
	for r := range a.send {
		a.send[r], a.recv[r] = make([]float64, n), make([]float64, n)
	}
	return a
}

func (a *allreduceReplay) step(r, i int) error {
	n := a.count(i)
	return a.w.comms[r].Allreduce(a.send[r], 0, a.recv[r], 0, n, core.Double, a.op)
}

// replayLoop times f(r, k) over a closed loop of at least minOps ops and
// returns rank 0's per-op latencies. The ranks meet before every op, so
// each op is timed from a common start and none inherits the tail of the
// op before it.
func replayLoop(abort func(), minOps int, dur time.Duration, f func(r, k int) error) (loopResult, error) {
	// A rank hands its peer one token per op and the peer takes it before
	// starting that op, so a token never waits behind another.
	ready := [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
	done := make(chan struct{})
	var once sync.Once
	stop := func() {
		once.Do(func() { close(done) })
		abort()
	}
	steps := [2]stepFunc{}
	for r := range steps {
		steps[r] = func(k int) (int64, bool, error) {
			ready[1-r] <- struct{}{}
			select {
			case <-ready[r]:
			case <-done:
				return 0, false, errors.New("replay aborted")
			}
			t0 := time.Now()
			err := f(r, k)
			return int64(time.Since(t0)), true, err
		}
	}
	return closedLoop(stop, 0, dur, minOps, 0, make([]int64, 0, 1<<18), steps)
}

// microLoop calls f, reps times per message of the workload's traffic,
// until dur has passed and every op of one cycle has been seen. It returns
// the time the calls took, their number and the payload bytes they covered.
func microLoop(b bench, dur time.Duration, reps int, f func(n int)) (ns, calls int64, bytesDone float64) {
	start := time.Now()
	for i := 0; i < b.cycle() || time.Since(start) < dur; i++ {
		for _, x := range b.traffic(i) {
			t0 := time.Now()
			for k := 0; k < reps; k++ {
				f(x.n)
			}
			ns += int64(time.Since(t0))
			calls += int64(reps)
			bytesDone += float64(reps * x.n)
		}
	}
	return ns, calls, bytesDone
}

// wireFrameNs is the mean time to build a message's frame (NewFrame),
// decode its header and read it back off a byte stream (ReadFrame).
func wireFrameNs(b bench, dur time.Duration) float64 {
	payload := make([]byte, maxMsg(b))
	var stream bytes.Buffer
	var rd bytes.Reader
	var untimed time.Duration
	ns, calls, _ := microLoop(b, dur, 1, func(n int) {
		t0 := time.Now()
		h := wire.Header{Kind: wire.KindEager, Tag: replayTag, Len: int32(n)}
		f := wire.NewFrame(&h, payload[:n])
		stream.Reset()
		_ = wire.WriteFrame(&stream, f) // a bytes.Buffer write cannot fail
		wire.PutBuf(f)
		rd.Reset(stream.Bytes())
		untimed += time.Since(t0)

		f = wire.NewFrame(&h, payload[:n])
		var got wire.Header
		_ = got.Decode(f) // f is at least a header long
		if g, err := wire.ReadFrame(&rd); err == nil {
			wire.PutBuf(g)
		}
		wire.PutBuf(f)
	})
	return float64(ns-int64(untimed)) / float64(calls)
}

// wirePoolNs is the mean cost of one GetBuf/PutBuf pair at a frame's size.
func wirePoolNs(b bench, dur time.Duration) float64 {
	ns, calls, _ := microLoop(b, dur, 16, func(n int) {
		wire.PutBuf(wire.GetBuf(wire.HeaderLen + n))
	})
	return float64(ns) / float64(calls)
}

// packNsPerKiB times core.Pack, or core.Unpack when unpack is set, of each
// message's payload in the workload's element type.
func packNsPerKiB(b bench, dur time.Duration, unpack bool) (float64, error) {
	dt := b.elem()
	size := dt.ByteSize()
	n := maxMsg(b)
	src, dst := dt.Alloc(n/size), dt.Alloc(n/size)
	packed := make([]byte, n)
	var err error
	ns, _, done := microLoop(b, dur, 4, func(n int) {
		if err != nil {
			return
		}
		count := n / size
		if unpack {
			_, err = core.Unpack(packed[:count*size], dst, 0, count, dt)
		} else {
			packed, err = core.Pack(packed[:0], src, 0, count, dt)
		}
	})
	return float64(ns) / (done / 1024), err
}
