package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mpj/internal/core"
	"mpj/internal/wire"
)

// devCounts is the sum of both devices' protocol counters.
type devCounts struct {
	eager, rts, cts, data int64
	// arrived counts messages (eager frames and RTS) as they reach the
	// receiver; unexpected counts those that found no posted receive.
	arrived, unexpected int64
}

func readDevCounts(w *world) devCounts {
	var c devCounts
	for _, d := range w.devs {
		s := d.Stats()
		c.eager += s.EagerSent.Load()
		c.rts += s.RTSSent.Load()
		c.cts += s.CTSSent.Load()
		c.data += s.DataSent.Load()
		c.arrived += s.EagerRecv.Load() + s.RTSRecv.Load()
		c.unexpected += s.Unexpected.Load()
	}
	return c
}

func (c devCounts) sub(o devCounts) devCounts {
	return devCounts{c.eager - o.eager, c.rts - o.rts, c.cts - o.cts, c.data - o.data,
		c.arrived - o.arrived, c.unexpected - o.unexpected}
}

func (c devCounts) frames() int64 { return c.eager + c.rts + c.cts + c.data }

// profSum adds both ranks' world-communicator counters.
func profSum(w *world) (sentBytes, rounds0, waitNs0 int64) {
	for r, c := range w.comms {
		s := c.ProfSnapshot()
		sentBytes += s.SentBytes()
		if r == 0 {
			rounds0, waitNs0 = s.CollRounds, s.WaitNs
		}
	}
	return
}

func p50us(l loopResult) float64 { return median(l.lat) / 1e3 }

// runTraced is the per-layer run. Its time goes to an untraced phase of
// the workload (device counters, runtime costs, the op latency the
// breakdown splits), a traced phase on a world with the program's own
// counters attached (spans, collective rounds, wire bytes), replays of the
// workload's traffic at each layer, and micro-replays of wire, pool, pack
// and the serial kernel.
func runTraced(cfg config, b bench, res *result, out string) error {
	S := cfg.seconds
	m := res.Metrics

	setups, err := measureSetup(b.device(), setupReps)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	m.set("transport.setup_s", "s", medianDur(setups, func(s setupTimes) time.Duration { return s.mesh }))
	m.set("device.open_s", "s", medianDur(setups, func(s setupTimes) time.Duration { return s.open }))
	m.set("core.newworld_s", "s", medianDur(setups, func(s setupTimes) time.Duration { return s.newWorld }))

	// Untraced phase.
	w, _, err := newWorld(b.device(), false)
	if err != nil {
		return err
	}
	defer w.abort() // after close, a no-op
	var dc0 devCounts
	plain, err := measure(b, w, 0, S/4, minRunOps, [2]*tracer{}, res, func() { dc0 = readDevCounts(w) })
	if err != nil {
		return err
	}
	kernelNs := b.kernelNs()
	dc := readDevCounts(w).sub(dc0)
	ops := float64(plain.ops)
	opTime := plain.busy().Seconds() / ops
	m.set("device.eager_per_op", "count", float64(dc.eager)/ops)
	m.set("device.rdv_per_op", "count", float64(dc.rts)/ops)
	m.set("device.unexpected_ratio", "ratio", ratio(dc.unexpected, dc.arrived))
	m.set("go.allocs_per_op", "count", float64(plain.mallocs)/ops)
	m.set("go.gc_cycles_per_kop", "count", float64(plain.gcCycles)*1000/ops)
	m.set("go.cpu_s_per_op", "s", plain.cpu.Seconds()/ops)
	m.set("kernel.step_us", "us", float64(kernelNs)/ops/1e3)
	var flops, bytes float64
	for i := plain.first; i < plain.first+plain.ops; i++ {
		flops += b.flops(i)
		bytes += b.bytes(i)
	}
	m.set("kernel.flops_per_step", "count", flops/ops)
	m.set("kernel.bytes_per_step", "B", bytes/ops)

	// Traced phase, on a world with the program's counters attached.
	wp, _, err := newWorld(b.device(), true)
	if err != nil {
		return err
	}
	defer wp.abort()
	epoch := time.Now()
	trs := [2]*tracer{newTracer(0, epoch, 1<<16), newTracer(1, epoch, 1<<16)}
	var dcp0 devCounts
	var sent0, rounds0, wait0 int64
	traced, err := measure(b, wp, 0, S/4, minRunOps, trs, res, func() {
		dcp0 = readDevCounts(wp)
		sent0, rounds0, wait0 = profSum(wp)
	})
	if err != nil {
		return err
	}
	b.kernelNs()
	dcp := readDevCounts(wp).sub(dcp0)
	sent1, rounds1, wait1 := profSum(wp)
	tops := float64(traced.ops)
	m.set("wire.frames_per_op", "count", float64(dcp.frames())/tops)
	m.set("wire.header_overhead_ratio", "ratio", float64(dcp.frames()*wire.HeaderLen)/float64(sent1-sent0))
	m.set("core.coll_rounds_per_op", "count", float64(rounds1-rounds0)/tops)
	m.set("core.coll_wait_us_per_op", "us", float64(wait1-wait0)/tops/1e3)
	m.set("trace.overhead_ratio", "ratio", (tops/traced.busy().Seconds())/(ops/plain.busy().Seconds()))
	self := trs[0].selfByName()
	m.set("mpj.halo_wait_us", "us", float64(self["mpj.waitall"])/tops/1e3)
	if err := wp.close(); err != nil {
		return err
	}
	res.TraceFile = filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := writeTrace(res.TraceFile, trs[:]...); err != nil {
		return err
	}

	// Layer replays of the same traffic, interleaved op by op so that every
	// layer is timed under the same conditions.
	tr, err := newTransportReplay(b)
	if err != nil {
		return fmt.Errorf("transport replay mesh: %w", err)
	}
	layers := []func(r, i int) error{
		func(r, i int) error { return b.comm(layerMPJ, r, w.comms[r], i) },
		func(r, i int) error { return b.comm(layerCore, r, w.comms[r], i) },
		newDeviceReplay(b, w).step,
		tr.step,
		// Allreduce at the size of the op's first message, and of 8 bytes.
		newAllreduceReplay(w, max(maxMsg(b)/8, 1), func(i int) int { return max(b.traffic(i)[0].n/8, 1) }, core.SumOp).step,
		newAllreduceReplay(w, 1, func(int) int { return 1 }, core.MaxOp).step,
	}
	abort := func() { w.abort(); tr.abort() }
	rl, err := replayLoop(abort, len(layers)*max(b.cycle(), 64), 2*S/5, func(r, k int) error {
		return layers[k%len(layers)](r, k/len(layers))
	})
	tr.close()
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	byLayer := make([]loopResult, len(layers))
	for k, ns := range rl.lat {
		l := &byLayer[k%len(layers)]
		l.lat = append(l.lat, ns)
		l.ops++
	}
	mpjL, coreL, devL, trL, allL, smallL := byLayer[0], byLayer[1], byLayer[2], byLayer[3], byLayer[4], byLayer[5]
	failed, err := b.finish(w)
	if err != nil {
		return err
	}
	res.Failed += failed
	if err := w.close(); err != nil {
		return err
	}

	transportUs, deviceUs := p50us(trL), p50us(devL)
	m.set("transport.rtt_us", "us", transportUs)
	m.set("transport.send_ns", "ns", float64(tr.sendNs)/float64(tr.sends))
	m.set("transport.mib_per_s", "MiB/s", payloadBytes(b, trL.ops)/trL.busy().Seconds()/(1<<20))
	m.set("device.rtt_us", "us", deviceUs)
	m.set("device.self_us", "us", deviceUs-transportUs)
	m.set("core.allreduce_us", "us", p50us(allL))
	m.set("core.small_allreduce_us", "us", p50us(smallL))
	m.set("core.self_us", "us", p50us(coreL)-deviceUs)
	m.set("mpj.self_us", "us", p50us(mpjL)-p50us(coreL))

	// Micro-replays at the workload's message sizes.
	md := S / 50
	m.set("wire.frame_ns", "ns", wireFrameNs(b, md))
	m.set("wire.pool_ns", "ns", wirePoolNs(b, md))
	packNs, err := packNsPerKiB(b, md, false)
	if err != nil {
		return fmt.Errorf("pack: %w", err)
	}
	unpackNs, err := packNsPerKiB(b, md, true)
	if err != nil {
		return fmt.Errorf("unpack: %w", err)
	}
	m.set("core.pack_ns_per_kib", "ns", packNs)
	m.set("core.unpack_ns_per_kib", "ns", unpackNs)
	serialUs, bad := serialStepUs(b, md)
	res.Attempted += bad.ops
	res.Failed += bad.failed
	m.set("kernel.serial_step_us", "us", serialUs)
	parallelOp := opTime
	if !b.kernelInOp() {
		parallelOp += float64(kernelNs) / ops / 1e9
	}
	m.set("kernel.parallel_efficiency", "ratio", serialUs/1e6/(2*parallelOp))

	// The breakdown of the untraced op's median latency by layer.
	opP50 := p50us(plain)
	kernelUs := 0.0
	if b.kernelInOp() {
		kernelUs = float64(kernelNs) / ops / 1e3
	}
	m.set("breakdown.op_p50_us", "us", opP50)
	m.set("breakdown.transport_us", "us", transportUs)
	m.set("breakdown.device_us", "us", m["device.self_us"].Value)
	m.set("breakdown.core_us", "us", m["core.self_us"].Value)
	m.set("breakdown.mpj_us", "us", m["mpj.self_us"].Value)
	m.set("breakdown.kernel_us", "us", kernelUs)
	m.set("breakdown.unattributed_us", "us", opP50-p50us(mpjL)-kernelUs)
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// serialStepUs times the workload's computation done by one goroutine
// without messages, over at least one cycle of ops.
func serialStepUs(b bench, dur time.Duration) (float64, loopResult) {
	var l loopResult
	start := time.Now()
	var ns int64
	for i := 0; i < b.cycle() || time.Since(start) < dur; i++ {
		t0 := time.Now()
		ok := b.serial(i)
		ns += int64(time.Since(t0))
		l.ops++
		if !ok {
			l.failed++
		}
	}
	return float64(ns) / float64(l.ops) / 1e3, l
}

func writeTrace(path string, trs ...*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return writeChromeTrace(path, trs...)
}
