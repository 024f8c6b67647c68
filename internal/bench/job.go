package bench

import (
	"runtime"
	"sync"
	"time"

	"mpj/internal/core"
	"mpj/internal/device"
	"mpj/internal/transport"
)

// The one in-process job runner behind every experiment, and the shared
// rank-0 timing loop.

// runJob runs an np-rank in-process job over the channel mesh, handing
// each rank to fn.
func runJob(np int, fn func(w *core.Comm) error) error {
	return runJobOn(np, chanEndpoints(np), nil, fn)
}

// chanEndpoints returns an endpoint builder over a fresh np-rank channel
// mesh.
func chanEndpoints(np int) func(rank int) (transport.Transport, error) {
	eps := transport.NewChanMesh(np)
	return func(rank int) (transport.Transport, error) { return eps[rank], nil }
}

// eagerOpts returns the device options setting the eager limit; a
// negative limit keeps the device default.
func eagerOpts(limit int) []device.Option {
	if limit < 0 {
		return nil
	}
	return []device.Option{device.WithEagerLimit(limit)}
}

// openJob opens a device and a world per rank over endpoints built by
// mkEp; opts, when non-nil, supplies each rank's device options. abortAll
// aborts every opened device; openJob has already called it when it
// returns an error.
func openJob(np int, mkEp func(rank int) (transport.Transport, error), opts func(rank int) []device.Option) (devs []*device.Device, worlds []*core.Comm, abortAll func(), err error) {
	devs = make([]*device.Device, np)
	worlds = make([]*core.Comm, np)
	abortAll = func() {
		for _, d := range devs {
			if d != nil {
				d.Abort()
			}
		}
	}
	for i := 0; i < np; i++ {
		var ep transport.Transport
		if ep, err = mkEp(i); err == nil {
			var o []device.Option
			if opts != nil {
				o = opts(i)
			}
			if devs[i], err = device.Open(ep, o...); err == nil {
				worlds[i], err = core.NewWorld(devs[i])
			}
		}
		if err != nil {
			abortAll()
			return nil, nil, nil, err
		}
	}
	return devs, worlds, abortAll, nil
}

// runJobOn runs an np-rank in-process job over endpoints built by mkEp,
// with per-rank device options from opts (nil: defaults). The first rank
// to fail aborts every device, so peers blocked in a receive, a
// collective or the final barrier error out instead of hanging the
// harness; the first failing rank's error (in rank order) is returned.
func runJobOn(np int, mkEp func(rank int) (transport.Transport, error), opts func(rank int) []device.Option, fn func(w *core.Comm) error) error {
	devs, worlds, abortAll, err := openJob(np, mkEp, opts)
	if err != nil {
		return err
	}
	var abortOnce sync.Once
	errs := make([]error, np)
	var wg sync.WaitGroup
	for i := 0; i < np; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(worlds[i]); err != nil {
				errs[i] = err
				abortOnce.Do(abortAll)
				return
			}
			errs[i] = worlds[i].Barrier()
		}()
	}
	wg.Wait()
	for _, d := range devs {
		d.Close()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// measureOnRank0 times iters calls of body on rank 0 and reports ns/op and
// allocated bytes/op. Allocation is read from the process-wide counter, so
// it covers every rank of the in-process job — all ranks run the same
// facade in lockstep, which is exactly the per-operation footprint of the
// pattern under test. min-of-reps strips scheduler jitter.
func measureOnRank0(w *core.Comm, iters, reps int, body func() error) (ns, bpo float64, err error) {
	var m0, m1 runtime.MemStats
	bestNs := 0.0
	bestB := 0.0
	for rep := 0; rep < reps; rep++ {
		if err := w.Barrier(); err != nil {
			return 0, 0, err
		}
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := body(); err != nil {
				return 0, 0, err
			}
		}
		el := time.Since(start)
		runtime.ReadMemStats(&m1)
		perNs := float64(el.Nanoseconds()) / float64(iters)
		perB := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(iters)
		if rep == 0 || perNs < bestNs {
			bestNs = perNs
		}
		if rep == 0 || perB < bestB {
			bestB = perB
		}
	}
	return bestNs, bestB, nil
}

// runOther drives the non-measuring ranks through the same rep/iter
// structure as measureOnRank0.
func runOther(w *core.Comm, iters, reps int, body func() error) error {
	for rep := 0; rep < reps; rep++ {
		if err := w.Barrier(); err != nil {
			return err
		}
		for i := 0; i < iters; i++ {
			if err := body(); err != nil {
				return err
			}
		}
	}
	return nil
}

// timeOnRank0 warms body up warm times, then times iters calls min-of-3
// on rank 0 while the other ranks run the same loop untimed; on rank 0 it
// stores ns/op in *ns and the bytes-per-op payload rate in *mibps.
func timeOnRank0(w *core.Comm, warm, iters, bytes int, body func() error, ns, mibps *float64) error {
	for i := 0; i < warm; i++ { // warm up pools, routes, schedules
		if err := body(); err != nil {
			return err
		}
	}
	if w.Rank() != 0 {
		return runOther(w, iters, 3, body)
	}
	best, _, err := measureOnRank0(w, iters, 3, body)
	if err != nil {
		return err
	}
	*ns = best
	*mibps = float64(bytes) / (1 << 20) / (best / 1e9)
	return nil
}
