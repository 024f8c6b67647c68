package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpj/internal/core"
	"mpj/internal/device"
	"mpj/internal/prof"
	"mpj/internal/transport"
)

// world is one 2-rank job built inside this process: a transport mesh, a
// device per rank and the world communicator over each device.
type world struct {
	devs  [2]*device.Device
	comms [2]*core.Comm
	lns   []net.Listener
}

// setupTimes splits one world construction by layer.
type setupTimes struct {
	mesh, open, newWorld time.Duration // newWorld includes the first Barrier
}

func (s setupTimes) total() time.Duration { return s.mesh + s.open + s.newWorld }

var jobSeq atomic.Uint64

// newMesh builds an unstarted 2-endpoint mesh of the named device. For tcp
// it listens on two loopback ports and dials, as a real job does; the
// listeners are returned for the caller to close after the mesh.
func newMesh(dev transport.DeviceName) ([2]transport.Transport, []net.Listener, error) {
	var eps [2]transport.Transport
	jobID := 0x9e<<56 | jobSeq.Add(1)
	switch dev {
	case transport.DeviceChan:
		m := transport.NewChanMesh(2)
		eps[0], eps[1] = m[0], m[1]
		return eps, nil, nil
	case transport.DeviceHyb:
		loc := transport.ProcessLocality()
		for r := range eps {
			h, err := transport.NewHybTransport(transport.HybConfig{Rank: r, JobID: jobID, Locs: []string{loc, loc}})
			if err != nil {
				if r == 1 {
					eps[0].Close()
				}
				return eps, nil, err
			}
			eps[r] = h
		}
		return eps, nil, nil
	case transport.DeviceTCP:
		lns := make([]net.Listener, 2)
		addrs := make([]string, 2)
		for r := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				closeAll(lns)
				return eps, nil, err
			}
			lns[r], addrs[r] = ln, ln.Addr().String()
		}
		var errs [2]error
		var wg sync.WaitGroup
		for r := range eps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t, err := transport.NewTCPTransport(r, jobID, addrs, lns[r])
				if err == nil {
					eps[r] = t
				}
				errs[r] = err
			}()
		}
		wg.Wait()
		if err := errors.Join(errs[:]...); err != nil {
			for _, t := range eps {
				if t != nil {
					t.Close()
				}
			}
			closeAll(lns)
			return eps, nil, err
		}
		return eps, lns, nil
	}
	return eps, nil, fmt.Errorf("no mesh for device %q", dev)
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// newWorld builds a 2-rank world on dev and completes a first Barrier,
// timing each layer's share. profiled attaches the program's own
// instrumentation counters (Comm.ProfSnapshot) to both devices.
func newWorld(dev transport.DeviceName, profiled bool) (*world, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	eps, lns, err := newMesh(dev)
	if err != nil {
		return nil, st, fmt.Errorf("%s mesh: %w", dev, err)
	}
	t1 := time.Now()
	w := &world{lns: lns}
	for r := range eps {
		var opts []device.Option
		if profiled {
			opts = append(opts, device.WithProfiler(prof.New(r, prof.Spec{Counters: true})))
		}
		d, err := device.Open(eps[r], opts...)
		if err != nil {
			eps[r].Close()
			if r == 0 {
				eps[1].Close()
			}
			w.abort()
			return nil, st, fmt.Errorf("device.Open rank %d: %w", r, err)
		}
		w.devs[r] = d
	}
	t2 := time.Now()
	for r, d := range w.devs {
		c, err := core.NewWorld(d)
		if err != nil {
			w.abort()
			return nil, st, fmt.Errorf("core.NewWorld rank %d: %w", r, err)
		}
		w.comms[r] = c
	}
	if err := w.both(func(r int) error { return w.comms[r].Barrier() }); err != nil {
		w.abort()
		return nil, st, fmt.Errorf("first Barrier: %w", err)
	}
	t3 := time.Now()
	st = setupTimes{mesh: t1.Sub(t0), open: t2.Sub(t1), newWorld: t3.Sub(t2)}
	return w, st, nil
}

// both runs f on rank 0 and rank 1 concurrently.
func (w *world) both(f func(r int) error) error { return runBoth(w.abort, f) }

func (w *world) abort() {
	for _, d := range w.devs {
		if d != nil {
			d.Abort()
		}
	}
	closeAll(w.lns)
}

// close finalizes like the runtime does: a world barrier, then the devices.
func (w *world) close() error {
	err := w.both(func(r int) error { return w.comms[r].Barrier() })
	for _, d := range w.devs {
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	closeAll(w.lns)
	return err
}

// measureSetup builds and tears down n worlds on dev after a few warm-up
// constructions and returns the per-layer times of each.
func measureSetup(dev transport.DeviceName, n int) ([]setupTimes, error) {
	const warm = 3
	runtime.GC()
	out := make([]setupTimes, 0, n)
	for i := 0; i < warm+n; i++ {
		w, st, err := newWorld(dev, false)
		if err != nil {
			return nil, err
		}
		if err := w.close(); err != nil {
			return nil, fmt.Errorf("closing %s world: %w", dev, err)
		}
		if i >= warm {
			out = append(out, st)
		}
	}
	return out, nil
}
