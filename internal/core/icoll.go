package core

import (
	"fmt"

	"mpj/internal/wire"
)

// This file implements the non-blocking fixed-count collectives —
// Ibarrier, Ibcast, Igather, Iscatter, Iallgather, Ireduce, Iallreduce,
// Ialltoall, Iscan — as schedule builders for the engine in sched.go (the
// varying-count family lives in ivcoll.go, the persistent Commit* forms
// in pcoll.go). Each algorithm (dissemination barrier, binomial trees,
// ring allgather, recursive doubling; segmented chain and binomial
// pipelines and the ring allreduce for large payloads — see collalg.go
// for how the algorithm is chosen) has exactly one round builder. The
// tree, dissemination and chain builders compile over a member list in
// comm-rank space (hier.go): the single-level collectives pass the comm's
// identity list, the two-level ones a locality group or its leaders. The
// blocking collectives in coll.go call the same builders and Wait
// immediately, so there is exactly one algorithm source. Builders take
// their schedule tag as a parameter: the I* entry points draw a fresh one
// per call, the persistent forms re-use the tag reserved at Commit time.

// ---------------------------------------------------------------------
// Round builders over the whole communicator.
// ---------------------------------------------------------------------

// gatherRounds compiles the binomial-tree gather for fixed-size blocks of
// bs bytes. acc starts as this rank's own block and accumulates the
// blocks of vranks [vrank, vrank+2^k) round by round; a non-zero vrank
// finishes by sending its accumulated range to the tree parent, the root
// ends up holding all size blocks in vrank order.
func gatherRounds(c *Comm, acc *cell, bs, root int) []round {
	size := c.Size()
	vrank := (c.rank - root + size) % size
	var rs []round
	for mask := 1; mask < size; mask <<= 1 {
		if vrank&mask != 0 {
			parent := (vrank - mask + root) % size
			rs = append(rs, round{sends: []sendStep{{to: parent, data: func() []byte { return acc.b }}}})
			return rs
		}
		srcV := vrank | mask
		if srcV >= size {
			continue
		}
		wantBlocks := min(srcV+mask, size) - srcV
		rs = append(rs, round{recvs: []recvStep{{
			from: (srcV + root) % size,
			on: func(got []byte) error {
				if len(got) != wantBlocks*bs {
					return fmt.Errorf("%w: got %d bytes from vrank %d, want %d",
						ErrOther, len(got), srcV, wantBlocks*bs)
				}
				need := (srcV - vrank + wantBlocks) * bs
				for len(acc.b) < need {
					acc.b = append(acc.b, make([]byte, need-len(acc.b))...)
				}
				copy(acc.b[(srcV-vrank)*bs:], got)
				return nil
			},
		}}})
	}
	return rs
}

// scatterRounds compiles the binomial-tree scatter, the mirror image of
// gatherRounds: the root's cl holds all blocks in vrank order, every other
// rank first fills cl from its parent, then one round forwards each
// child's sub-range.
func scatterRounds(c *Comm, cl *cell, root int) []round {
	size := c.Size()
	vrank := (c.rank - root + size) % size
	var rs []round
	lb := pow2ceil(size)
	if vrank != 0 {
		lb = lowbit(vrank)
		parent := (vrank - lb + root) % size
		rs = append(rs, round{recvs: []recvStep{{
			from: parent,
			on:   func(got []byte) error { cl.b = got; return nil },
		}}})
	}
	myBlocks := min(lb, size-vrank)
	var sends []sendStep
	for m := lb >> 1; m > 0; m >>= 1 {
		if vrank+m < size {
			m := m
			child := (vrank + m + root) % size
			sends = append(sends, sendStep{to: child, data: func() []byte {
				bs := 0
				if myBlocks > 0 {
					bs = len(cl.b) / myBlocks
				}
				childBlocks := min(m, size-(vrank+m))
				return cl.b[m*bs : (m+childBlocks)*bs]
			}})
		}
	}
	if len(sends) > 0 {
		rs = append(rs, round{sends: sends})
	}
	return rs
}

// ringRounds compiles the bandwidth-optimal ring allgather: p-1 rounds, in
// round s every rank forwards the block of rank (rank-s mod p) to its
// right neighbour and receives the block of rank (rank-s-1 mod p) from its
// left, delivering each arrival through onBlock. cur carries the block in
// flight: it enters holding this rank's own contribution and each arrival
// replaces it — callers that cache the schedule reseed cur (and re-deliver
// their own block) in their reset hook.
func ringRounds(c *Comm, cur *cell, onBlock func(owner int, got []byte) error) []round {
	size := c.Size()
	right := (c.rank + 1) % size
	left := (c.rank - 1 + size) % size
	var rs []round
	for s := 0; s < size-1; s++ {
		owner := (c.rank - s - 1 + size*2) % size
		rs = append(rs, round{
			recvs: []recvStep{{from: left, on: func(got []byte) error {
				if err := onBlock(owner, got); err != nil {
					return err
				}
				cur.b = got
				return nil
			}}},
			sends: []sendStep{{to: right, data: func() []byte { return cur.b }}},
		})
	}
	return rs
}

// ringWindowRounds compiles the zero-staging ring allgather over a raw
// byte window holding size fixed-size block slots in rank order: in round
// s every rank forwards block (rank-s mod p) to its right neighbour
// straight out of the window and receives block (rank-s-1 mod p) from its
// left neighbour straight into its final slot. Unlike ringRounds there is
// no per-hop adopt-and-unpack copy, which is what large payloads need.
func ringWindowRounds(c *Comm, win []byte, bs int) []round {
	size := c.Size()
	right := (c.rank + 1) % size
	left := (c.rank - 1 + size) % size
	slot := func(i int) []byte { return win[i*bs : (i+1)*bs] }
	var rs []round
	for s := 0; s < size-1; s++ {
		sendOwner := (c.rank - s + size) % size
		recvOwner := (c.rank - s - 1 + 2*size) % size
		data := slot(sendOwner)
		rs = append(rs, round{
			recvs: []recvStep{{from: left, buf: slot(recvOwner)}},
			sends: []sendStep{{to: right, data: func() []byte { return data }}},
		})
	}
	return rs
}

// ringAllreduceSegRounds compiles the bandwidth-optimal ring allreduce
// over the packed vector acc: a reduce-scatter phase (p-1 steps; in step s
// every rank sends its partial of chunk rank-s right and folds the
// arriving partial of chunk rank-s-1 into acc) leaves rank r holding the
// complete reduction of chunk r+1, then a ring allgather circulates the
// reduced chunks back into place. Chunks are cut on elem-byte element
// boundaries as evenly as the count allows, so the schedule is correct for
// any communicator size, including non-powers-of-two, and for counts that
// do not divide by it; each rank moves ~2·len(acc) bytes total regardless
// of p. scratch stages the reduce-scatter arrivals and must hold min(seg,
// largest chunk) bytes.
//
// Each step streams its chunk as seg-byte segments (seg is
// element-aligned), so a rank starts combining — and its neighbour
// forwarding — after one segment instead of one chunk; a seg no smaller
// than the largest chunk gives the whole-chunk store-and-forward ring (see
// iallreduceRing). The per-step send/recv segment counts can differ by one
// when adjacent chunks round differently; rounds carrying only the longer
// side keep both rings aligned.
func ringAllreduceSegRounds(c *Comm, acc, scratch []byte, elem int, comb combiner, seg int) []round {
	size := c.Size()
	n := len(acc) / elem
	bound := func(i int) int { return i * n / size * elem }
	chunk := func(i int) []byte {
		i = (i%size + size) % size
		return acc[bound(i):bound(i+1)]
	}
	right := (c.rank + 1) % size
	left := (c.rank - 1 + size) % size
	var rs []round
	// Reduce-scatter: in step s segment k of the partial of chunk rank-s
	// goes right while segment k of chunk rank-s-1 arrives and folds in.
	for s := 0; s < size-1; s++ {
		send := chunk(c.rank - s)
		dst := chunk(c.rank - s - 1)
		sendSegs, recvSegs := segCount(len(send), seg), segCount(len(dst), seg)
		for k := 0; k < max(sendSegs, recvSegs); k++ {
			var rd round
			if k < recvSegs {
				dseg := segOf(dst, k, seg)
				rd.recvs = []recvStep{{from: left, buf: scratch[:len(dseg)], on: func(got []byte) error {
					return comb(got, dseg)
				}}}
			}
			if k < sendSegs {
				sseg := segOf(send, k, seg)
				rd.sends = []sendStep{{to: right, data: func() []byte { return sseg }}}
			}
			rs = append(rs, rd)
		}
	}
	// Allgather: the reduced chunks circulate back, landing segment by
	// segment straight in their final places.
	for s := 0; s < size-1; s++ {
		send := chunk(c.rank + 1 - s)
		dst := chunk(c.rank - s)
		sendSegs, recvSegs := segCount(len(send), seg), segCount(len(dst), seg)
		for k := 0; k < max(sendSegs, recvSegs); k++ {
			var rd round
			if k < recvSegs {
				rd.recvs = []recvStep{{from: left, buf: segOf(dst, k, seg)}}
			}
			if k < sendSegs {
				sseg := segOf(send, k, seg)
				rd.sends = []sendStep{{to: right, data: func() []byte { return sseg }}}
			}
			rs = append(rs, rd)
		}
	}
	return rs
}

// ---------------------------------------------------------------------
// The non-blocking collective API. Each I* operation compiles a schedule,
// posts its first round immediately (so communication overlaps the
// caller's compute) and returns a *CollRequest to Wait/Test on. The usual
// collective rules apply: every member must start the same collectives in
// the same order and eventually complete them.
// ---------------------------------------------------------------------

// Ibarrier starts a non-blocking barrier — MPI_Ibarrier. The request
// completes once every member has entered the barrier.
func (c *Comm) Ibarrier() (*CollRequest, error) {
	return c.ibarrier("ibarrier", c.nextCollTag())
}

func (c *Comm) ibarrier(name string, tag int) (*CollRequest, error) {
	// On a comm spanning locality groups the two-level barrier crosses
	// the expensive links twice per leader instead of every dissemination
	// round (hier.go).
	if c.collHier(0) {
		return c.newCollRequestAlg(name, tag, "hier", 0, c.ihbarrierRounds(), nil)
	}
	return c.newCollRequest(name, tag, barrierRoundsIn(c, c.localityView().all), nil)
}

// Ibcast starts a non-blocking broadcast of count elements of dt from the
// root's buf to every member — MPI_Ibcast. The buffer must not be touched
// until the request completes.
func (c *Comm) Ibcast(buf any, off, count int, dt Datatype, root int) (*CollRequest, error) {
	return c.ibcast("ibcast", c.nextCollTag(), buf, off, count, dt, root)
}

func (c *Comm) ibcast(name string, tag int, buf any, off, count int, dt Datatype, root int) (*CollRequest, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	// Comms spanning locality groups take the two-level schedule (hier.go);
	// large fixed-size payloads stream down a segmented pipeline (binomial
	// in the mid-size band, chain above it — see collalg.go for the
	// selection knobs); everything else rides the classic binomial tree.
	if sz := dt.ByteSize(); sz > 0 && count > 0 && c.Size() > 1 {
		if c.collHier(count * sz) {
			return c.ihbcast(name, tag, buf, off, count, dt, count*sz, root)
		}
		if c.collLarge(count * sz) {
			return c.ibcastPipelined(name, tag, buf, off, count, dt, count*sz, root)
		}
	}
	cl := &cell{}
	if c.rank == root {
		var err error
		if cl.b, err = packExact(dt, buf, off, count); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	var finish func() error
	if c.rank != root && c.Size() > 1 {
		finish = func() error {
			_, err := dt.Unpack(cl.b, buf, off, count)
			return err
		}
	}
	req, err := c.newCollRequestAlg(name, tag, "binomial", 0, bcastRoundsIn(c, c.localityView().all, cl, root), finish)
	if err == nil {
		// Cacheable: the only build-time state is the root's packed cell,
		// which reset re-derives; every other rank's cell is overwritten
		// by its tree parent before anything reads it.
		req.cacheable = true
		if c.rank == root {
			req.reset = func() error {
				b, err := packExact(dt, buf, off, count)
				if err != nil {
					return err
				}
				cl.b = b
				return nil
			}
		}
	}
	return req, err
}

// bcastAssembly returns the assembly space a segmented broadcast of total
// packed bytes streams through. For raw-layout datatypes it is the user
// buffer itself — the root streams segments straight out of it and every
// other rank receives them straight into it, no packing or staging at all.
// Other fixed-size datatypes stage through one packed buffer: the root
// packs it now and reset re-packs it in place (the compiled sends hold
// slices of it), every other rank unpacks it in finish.
func bcastAssembly(rank, root int, buf any, off, count int, dt Datatype, total int) (asm []byte, finish, reset func() error, err error) {
	if rw, ok := dt.(rawWindower); ok {
		if win, ok := rw.window(buf, off, count); ok {
			return win, nil, nil, nil
		}
	}
	if rank != root {
		asm = make([]byte, total)
		finish = func() error {
			_, err := dt.Unpack(asm, buf, off, count)
			return err
		}
		return asm, finish, nil, nil
	}
	if asm, err = packExact(dt, buf, off, count); err != nil {
		return nil, nil, nil, err
	}
	if len(asm) != total {
		return nil, nil, nil, fmt.Errorf("%w: packed %d of %d bytes", ErrCount, len(asm), total)
	}
	reset = func() error {
		if pi, ok := dt.(packerInto); ok {
			return pi.PackInto(asm, buf, off, count)
		}
		b, err := packExact(dt, buf, off, count)
		if err != nil {
			return err
		}
		if len(b) != len(asm) {
			return fmt.Errorf("%w: packed %d of %d bytes", ErrCount, len(b), len(asm))
		}
		copy(asm, b)
		return nil
	}
	return asm, nil, reset, nil
}

// ibcastPipelined compiles the segmented broadcast — the pipelined
// binomial tree in the mid-size band, the pipelined chain above it (see
// collBinPipe and the bin_pipe_* table knobs) — over the assembly space
// of bcastAssembly.
func (c *Comm) ibcastPipelined(name string, tag int, buf any, off, count int, dt Datatype, total, root int) (*CollRequest, error) {
	asm, finish, reset, err := bcastAssembly(c.rank, root, buf, off, count, dt, total)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	build, algName := pipeChainRoundsIn, "chain-pipelined"
	if c.collBinPipe(total) {
		build, algName = pipeBinomialRoundsIn, "binomial-pipelined"
	}
	seg := c.collSegSize()
	rounds := build(c, c.localityView().all, asm, root, seg)
	req, err := c.newCollRequestAlg(name, tag, algName, segCount(total, seg), rounds, finish)
	if err == nil {
		// Cacheable: the chain streams slices of asm, which is either user
		// memory (raw windows, re-read per activation), non-root staging
		// (overwritten by the parent each run) or the root's packed buffer,
		// which reset refreshes in place.
		req.cacheable = true
		req.reset = reset
	}
	return req, err
}

// Igather starts a non-blocking gather of scount elements from every
// member into the root's rbuf — MPI_Igather.
func (c *Comm) Igather(sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype, root int) (*CollRequest, error) {
	return c.igather("igather", c.nextCollTag(), sbuf, soff, scount, sdt, rbuf, roff, rcount, rdt, root)
}

func (c *Comm) igather(name string, tag int, sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype, root int) (*CollRequest, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	size := c.Size()
	myData, err := packExact(sdt, sbuf, soff, scount)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if size == 1 {
		req, err := c.newCollRequest(name, tag, nil, func() error {
			_, err := rdt.Unpack(myData, rbuf, roff, rcount)
			return err
		})
		if err == nil {
			req.cacheable = true
			req.reset = func() error {
				b, err := packExact(sdt, sbuf, soff, scount)
				if err != nil {
					return err
				}
				myData = b
				return nil
			}
		}
		return req, err
	}

	if sdt.ByteSize() < 0 {
		// Variable-size blocks: linear gather, all transfers in one round.
		if c.rank != root {
			rounds := []round{{sends: []sendStep{{to: root, data: func() []byte { return myData }}}}}
			return c.newCollRequest(name, tag, rounds, nil)
		}
		var rd round
		for r := 0; r < size; r++ {
			if r == root {
				continue
			}
			rd.recvs = append(rd.recvs, recvStep{from: r, on: func(got []byte) error {
				_, err := rdt.Unpack(got, rbuf, roff+r*rcount*rdt.Extent(), rcount)
				return err
			}})
		}
		finish := func() error {
			_, err := rdt.Unpack(myData, rbuf, roff+root*rcount*rdt.Extent(), rcount)
			return err
		}
		return c.newCollRequest(name, tag, []round{rd}, finish)
	}

	// Fixed-size blocks: binomial tree over vranks.
	bs := len(myData)
	acc := &cell{b: myData}
	var finish func() error
	if c.rank == root {
		finish = func() error {
			if len(acc.b) != size*bs {
				return fmt.Errorf("%w: root assembled %d of %d bytes", ErrOther, len(acc.b), size*bs)
			}
			for v := 0; v < size; v++ {
				r := (v + root) % size
				if _, err := rdt.Unpack(acc.b[v*bs:(v+1)*bs], rbuf, roff+r*rcount*rdt.Extent(), rcount); err != nil {
					return err
				}
			}
			return nil
		}
	}
	req, err := c.newCollRequest(name, tag, gatherRounds(c, acc, bs, root), finish)
	if err == nil {
		// Cacheable: the accumulator is the only build-time state; reset
		// restarts it from this rank's freshly packed contribution (the
		// block size bs is invariant for a fixed-size datatype, so the
		// compiled tree geometry stays valid).
		req.cacheable = true
		req.reset = func() error {
			b, err := packExact(sdt, sbuf, soff, scount)
			if err != nil {
				return err
			}
			acc.b = b
			return nil
		}
	}
	return req, err
}

// Iscatter starts a non-blocking scatter of scount elements per rank from
// the root's sbuf — MPI_Iscatter.
func (c *Comm) Iscatter(sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype, root int) (*CollRequest, error) {
	return c.iscatter("iscatter", c.nextCollTag(), sbuf, soff, scount, sdt, rbuf, roff, rcount, rdt, root)
}

func (c *Comm) iscatter(name string, tag int, sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype, root int) (*CollRequest, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	size := c.Size()
	if size == 1 {
		data, err := packExact(sdt, sbuf, soff, scount)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		req, err := c.newCollRequest(name, tag, nil, func() error {
			_, err := rdt.Unpack(data, rbuf, roff, rcount)
			return err
		})
		if err == nil {
			req.cacheable = true
			req.reset = func() error {
				b, err := packExact(sdt, sbuf, soff, scount)
				if err != nil {
					return err
				}
				data = b
				return nil
			}
		}
		return req, err
	}

	if sdt.ByteSize() < 0 || rdt.ByteSize() < 0 {
		// Variable-size blocks: linear scatter, all transfers in one round.
		if c.rank == root {
			var rd round
			var own []byte
			for r := 0; r < size; r++ {
				data, err := sdt.Pack(nil, sbuf, soff+r*scount*sdt.Extent(), scount)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", name, err)
				}
				if r == root {
					own = data
					continue
				}
				rd.sends = append(rd.sends, sendStep{to: r, data: func() []byte { return data }})
			}
			finish := func() error {
				_, err := rdt.Unpack(own, rbuf, roff, rcount)
				return err
			}
			return c.newCollRequest(name, tag, []round{rd}, finish)
		}
		cl := &cell{}
		rounds := []round{{recvs: []recvStep{{
			from: root,
			on:   func(got []byte) error { cl.b = got; return nil },
		}}}}
		finish := func() error {
			_, err := rdt.Unpack(cl.b, rbuf, roff, rcount)
			return err
		}
		return c.newCollRequest(name, tag, rounds, finish)
	}

	// Fixed-size blocks: binomial tree, data travelling root-down. The
	// root's pack is a closure so a cached reactivation can redo it
	// against the current buffer contents.
	vrank := (c.rank - root + size) % size
	cl := &cell{}
	packRoot := func() error {
		if pi, ok := sdt.(packerInto); ok && scount >= 0 && sdt.ByteSize() >= 0 {
			// One exactly-sized buffer, each block packed in place.
			bs := scount * sdt.ByteSize()
			if len(cl.b) != size*bs {
				cl.b = make([]byte, size*bs)
			}
			for v := 0; v < size; v++ {
				r := (v + root) % size
				if err := pi.PackInto(cl.b[v*bs:(v+1)*bs], sbuf, soff+r*scount*sdt.Extent(), scount); err != nil {
					return err
				}
			}
			return nil
		}
		cl.b = cl.b[:0]
		for v := 0; v < size; v++ {
			r := (v + root) % size
			var err error
			cl.b, err = sdt.Pack(cl.b, sbuf, soff+r*scount*sdt.Extent(), scount)
			if err != nil {
				return err
			}
		}
		return nil
	}
	if vrank == 0 {
		if err := packRoot(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	finish := func() error {
		lb := pow2ceil(size)
		if vrank != 0 {
			lb = lowbit(vrank)
		}
		myBlocks := min(lb, size-vrank)
		bs := 0
		if myBlocks > 0 {
			bs = len(cl.b) / myBlocks
		}
		_, err := rdt.Unpack(cl.b[:bs], rbuf, roff, rcount)
		return err
	}
	req, err := c.newCollRequest(name, tag, scatterRounds(c, cl, root), finish)
	if err == nil {
		// Cacheable: the root re-packs its cell per activation; every
		// other rank's cell is filled by its tree parent each run.
		req.cacheable = true
		if vrank == 0 {
			req.reset = packRoot
		}
	}
	return req, err
}

// Iallgather starts a non-blocking allgather: every member's block ends up
// on every member — MPI_Iallgather.
func (c *Comm) Iallgather(sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype) (*CollRequest, error) {
	return c.iallgather("iallgather", c.nextCollTag(), sbuf, soff, scount, sdt, rbuf, roff, rcount, rdt)
}

func (c *Comm) iallgather(name string, tag int, sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype) (*CollRequest, error) {
	size := c.Size()
	// Comms spanning locality groups batch blocks through group leaders
	// so each block crosses the expensive links once (hier.go).
	if sz := rdt.ByteSize(); sz > 0 && rcount > 0 && size > 1 && c.collHier(size*rcount*sz) {
		return c.ihallgather(name, tag, sbuf, soff, scount, sdt, rbuf, roff, rcount, rdt)
	}
	// Large fixed-size payloads whose receive buffer exposes a raw window
	// ride the zero-staging ring: blocks circulate straight between user
	// buffers, no per-hop adopt-and-unpack copies.
	if sz := rdt.ByteSize(); sz > 0 && rcount > 0 && size > 1 && c.collLarge(size*rcount*sz) {
		if rw, ok := rdt.(rawWindower); ok {
			if win, ok := rw.window(rbuf, roff, size*rcount); ok {
				bs := rcount * sz
				if pi, ok := sdt.(packerInto); ok && scount >= 0 && scount*sdt.ByteSize() == bs {
					if err := pi.PackInto(win[c.rank*bs:(c.rank+1)*bs], sbuf, soff, scount); err != nil {
						return nil, fmt.Errorf("%s: %w", name, err)
					}
					req, err := c.newCollRequestAlg(name, tag, "ring-window", 0, ringWindowRounds(c, win, bs), nil)
					if err == nil {
						// Cacheable: blocks circulate straight between user
						// windows; reset re-seeds this rank's own slot.
						req.cacheable = true
						req.reset = func() error {
							return pi.PackInto(win[c.rank*bs:(c.rank+1)*bs], sbuf, soff, scount)
						}
					}
					return req, err
				}
			}
		}
	}
	myData, err := packExact(sdt, sbuf, soff, scount)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	unpackSlot := func(owner int, got []byte) error {
		_, err := rdt.Unpack(got, rbuf, roff+owner*rcount*rdt.Extent(), rcount)
		return err
	}
	if size == 1 {
		req, err := c.newCollRequest(name, tag, nil, func() error {
			_, err := rdt.Unpack(myData, rbuf, roff, rcount)
			return err
		})
		if err == nil {
			req.cacheable = true
			req.reset = func() error {
				b, err := packExact(sdt, sbuf, soff, scount)
				if err != nil {
					return err
				}
				myData = b
				return nil
			}
		}
		return req, err
	}

	if sdt.ByteSize() < 0 {
		// Variable-size blocks: linear exchange, all transfers in one round.
		var rd round
		for r := 0; r < size; r++ {
			if r == c.rank {
				continue
			}
			rd.recvs = append(rd.recvs, recvStep{from: r, on: func(got []byte) error {
				return unpackSlot(r, got)
			}})
			rd.sends = append(rd.sends, sendStep{to: r, data: func() []byte { return myData }})
		}
		finish := func() error { return unpackSlot(c.rank, myData) }
		return c.newCollRequest(name, tag, []round{rd}, finish)
	}

	// Fixed-size blocks: ring. Own block lands immediately; the rest
	// arrive over p-1 rounds.
	if err := unpackSlot(c.rank, myData); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	cur := &cell{b: myData}
	req, err := c.newCollRequestAlg(name, tag, "ring", 0, ringRounds(c, cur, unpackSlot), nil)
	if err == nil {
		// Cacheable: reset re-packs this rank's contribution, lands it in
		// its own receive slot (build-time work in the one-shot path) and
		// re-seeds the circulating cell with it.
		req.cacheable = true
		req.reset = func() error {
			b, err := packExact(sdt, sbuf, soff, scount)
			if err != nil {
				return err
			}
			if err := unpackSlot(c.rank, b); err != nil {
				return err
			}
			cur.b = b
			return nil
		}
	}
	return req, err
}

// Ireduce starts a non-blocking reduction of count elements with op,
// leaving the result in the root's rbuf — MPI_Ireduce.
func (c *Comm) Ireduce(sbuf any, soff int, rbuf any, roff, count int, dt Datatype, op *Op, root int) (*CollRequest, error) {
	return c.ireduce("ireduce", c.nextCollTag(), sbuf, soff, rbuf, roff, count, dt, op, root)
}

func (c *Comm) ireduce(name string, tag int, sbuf any, soff int, rbuf any, roff, count int, dt Datatype, op *Op, root int) (*CollRequest, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	comb, err := op.combinerFor(dt)
	if err != nil {
		return nil, err
	}
	data, err := packExact(dt, sbuf, soff, count)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	acc := &cell{b: data}
	var finish func() error
	if c.rank == root {
		finish = func() error {
			_, err := dt.Unpack(acc.b, rbuf, roff, count)
			return err
		}
	}
	// Comms spanning locality groups reduce inside each group first so
	// only one partial per group crosses the expensive links (hier.go).
	var rounds []round
	algName := "binomial"
	if c.collHier(len(data)) {
		rounds = c.ihreduceRounds(acc, comb, root)
		algName = "hier"
	} else {
		rounds = reduceRoundsIn(c, c.localityView().all, acc, comb, root)
	}
	req, err := c.newCollRequestAlg(name, tag, algName, 0, rounds, finish)
	if err == nil {
		// Cacheable: reset restarts the accumulator from this rank's
		// freshly packed contribution before child partials fold in.
		req.cacheable = true
		req.reset = func() error {
			b, err := packExact(dt, sbuf, soff, count)
			if err != nil {
				return err
			}
			acc.b = b
			return nil
		}
	}
	return req, err
}

// Iallreduce starts a non-blocking allreduce: the combined result lands on
// every member — MPI_Iallreduce. Large fixed-size vectors ride the
// bandwidth-optimal ring; below the threshold power-of-two sizes use
// recursive doubling and others reduce to rank 0 and broadcast (the same
// automatic choice Allreduce makes; see collalg.go).
func (c *Comm) Iallreduce(sbuf any, soff int, rbuf any, roff, count int, dt Datatype, op *Op) (*CollRequest, error) {
	return c.iallreduce("iallreduce", c.nextCollTag(), c.autoAllreduceAlg(count, dt), sbuf, soff, rbuf, roff, count, dt, op)
}

// IallreduceWith is Iallreduce with an explicit algorithm choice.
func (c *Comm) IallreduceWith(alg AllreduceAlgorithm, sbuf any, soff int, rbuf any, roff, count int, dt Datatype, op *Op) (*CollRequest, error) {
	if alg == AllreduceAuto {
		return c.Iallreduce(sbuf, soff, rbuf, roff, count, dt, op)
	}
	return c.iallreduce("iallreduce", c.nextCollTag(), alg, sbuf, soff, rbuf, roff, count, dt, op)
}

func (c *Comm) iallreduce(name string, tag int, alg AllreduceAlgorithm, sbuf any, soff int, rbuf any, roff, count int, dt Datatype, op *Op) (*CollRequest, error) {
	size := c.Size()
	comb, err := op.combinerFor(dt)
	if err != nil {
		return nil, err
	}
	if alg == AllreduceRing {
		return c.iallreduceRing(name, tag, sbuf, soff, rbuf, roff, count, dt, comb)
	}
	data, err := packExact(dt, sbuf, soff, count)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	acc := &cell{b: data}
	var rounds []round
	var algName string
	switch alg {
	case AllreduceRecursiveDoubling:
		if size&(size-1) != 0 {
			return nil, fmt.Errorf("%w: recursive doubling requires power-of-two size, have %d", ErrComm, size)
		}
		rounds = rdRoundsIn(c, c.localityView().all, acc, comb)
		algName = "recursive-doubling"
	case AllreduceTreeBcast:
		// Reduce to rank 0, then broadcast: the bcast phase reuses acc —
		// rank 0 enters it holding the full reduction, every other rank's
		// acc is overwritten by its tree parent before it forwards.
		all := c.localityView().all
		rounds = append(reduceRoundsIn(c, all, acc, comb, 0), bcastRoundsIn(c, all, acc, 0)...)
		algName = "reduce-bcast"
	case AllreduceHier:
		if !c.localityView().multi() {
			return nil, fmt.Errorf("%w: hierarchical allreduce requires a comm spanning locality groups", ErrComm)
		}
		rounds = c.ihallreduceRounds(acc, comb)
		algName = "hier"
	default:
		return nil, fmt.Errorf("%w: unknown allreduce algorithm %d", ErrOther, alg)
	}
	finish := func() error {
		_, err := dt.Unpack(acc.b, rbuf, roff, count)
		return err
	}
	req, err := c.newCollRequestAlg(name, tag, algName, 0, rounds, finish)
	if err == nil {
		// Cacheable (the ring variant is not: its reduce-scatter scratch
		// comes from the wire pool and is recycled at finish): reset
		// restarts the accumulator from the current send buffer.
		req.cacheable = true
		req.reset = func() error {
			b, err := packExact(dt, sbuf, soff, count)
			if err != nil {
				return err
			}
			acc.b = b
			return nil
		}
	}
	return req, err
}

// iallreduceRing compiles the ring allreduce. For raw-layout datatypes the
// receive buffer itself is the working vector — the contribution lands in
// it with one memmove, the ring reduces in place in user memory, and the
// final unpack disappears; other fixed-size datatypes stage through a
// packed vector. The reduce-scatter scratch comes from the wire pool and
// is recycled when the schedule finishes.
func (c *Comm) iallreduceRing(name string, tag int, sbuf any, soff int, rbuf any, roff, count int, dt Datatype, comb combiner) (*CollRequest, error) {
	elem := dt.Base().ByteSize()
	if elem <= 0 {
		return nil, fmt.Errorf("%s: %w: ring allreduce requires fixed-size elements, have %s", name, ErrType, dt.Name())
	}
	var acc []byte
	var unpack func() error
	if rw, ok := dt.(rawWindower); ok {
		if win, ok := rw.window(rbuf, roff, count); ok {
			if pi, ok := dt.(packerInto); ok {
				if err := pi.PackInto(win, sbuf, soff, count); err != nil {
					return nil, fmt.Errorf("%s: %w", name, err)
				}
				acc = win
			}
		}
	}
	if acc == nil {
		data, err := packExact(dt, sbuf, soff, count)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		acc = data
		unpack = func() error {
			_, err := dt.Unpack(acc, rbuf, roff, count)
			return err
		}
	}
	n := len(acc) / elem
	size := c.Size()
	maxChunk := (n + size - 1) / size * elem // chunk sizes differ by at most one element
	scratch := wire.GetBuf(maxChunk)
	// Once chunks outgrow the pipeline segment size, stream them as
	// segments inside each ring step; below that each step moves its whole
	// chunk as one segment. All ranks compute the same n/size/seg, so the
	// choice agrees everywhere.
	seg := c.collSegSize()
	if seg < elem {
		seg = elem
	} else {
		seg -= seg % elem
	}
	algName, nseg := "ring-segmented", segCount(len(acc), seg)
	if maxChunk < 2*seg {
		algName, nseg, seg = "ring", 0, maxChunk
	}
	rounds := ringAllreduceSegRounds(c, acc, scratch, elem, comb, seg)
	finish := func() error {
		wire.PutBuf(scratch)
		if unpack != nil {
			return unpack()
		}
		return nil
	}
	return c.newCollRequestAlg(name, tag, algName, nseg, rounds, finish)
}

// Ialltoall starts a non-blocking all-to-all personalized exchange: a
// distinct scount-element block travels between every pair of members —
// MPI_Ialltoall. All transfers run in a single round.
func (c *Comm) Ialltoall(sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype) (*CollRequest, error) {
	return c.ialltoall("ialltoall", c.nextCollTag(), sbuf, soff, scount, sdt, rbuf, roff, rcount, rdt)
}

func (c *Comm) ialltoall(name string, tag int, sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype) (*CollRequest, error) {
	size := c.Size()
	var rd round
	// Fixed-size blocks pack straight into the outgoing frames (fill
	// steps): no per-peer intermediate buffers at all. Variable-size
	// blocks pack up front, as before.
	pi, fixed := sdt.(packerInto)
	bs := 0
	if sz := sdt.ByteSize(); sz >= 0 && scount >= 0 {
		bs = scount * sz
	} else {
		fixed = false
	}
	own, err := packExact(sdt, sbuf, soff+c.rank*scount*sdt.Extent(), scount)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for r := 0; r < size; r++ {
		if r == c.rank {
			continue
		}
		rd.recvs = append(rd.recvs, recvStep{from: r, on: func(got []byte) error {
			_, err := rdt.Unpack(got, rbuf, roff+r*rcount*rdt.Extent(), rcount)
			return err
		}})
		if fixed {
			off := soff + r*scount*sdt.Extent()
			rd.sends = append(rd.sends, sendStep{to: r, n: bs, fill: func(p []byte) error {
				return pi.PackInto(p, sbuf, off, scount)
			}})
			continue
		}
		data, err := sdt.Pack(nil, sbuf, soff+r*scount*sdt.Extent(), scount)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rd.sends = append(rd.sends, sendStep{to: r, data: func() []byte { return data }})
	}
	finish := func() error {
		_, err := rdt.Unpack(own, rbuf, roff+c.rank*rcount*rdt.Extent(), rcount)
		return err
	}
	var rounds []round
	if size > 1 {
		rounds = []round{rd}
	}
	req, err := c.newCollRequest(name, tag, rounds, finish)
	if err == nil && (fixed || size == 1) {
		// Cacheable on the fixed-size route, where every outgoing block
		// fills its frame at post time; only the rank's own diagonal block
		// is packed at build, and reset re-derives it. The variable-size
		// route packs all its payloads at build and recompiles instead.
		req.cacheable = true
		req.reset = func() error {
			b, err := packExact(sdt, sbuf, soff+c.rank*scount*sdt.Extent(), scount)
			if err != nil {
				return err
			}
			own = b
			return nil
		}
	}
	return req, err
}

// Iscan starts a non-blocking inclusive prefix reduction: rank r receives
// the combination of the contributions of ranks 0..r — MPI_Iscan.
// Simultaneous binomial algorithm, ceil(log2 p) rounds.
func (c *Comm) Iscan(sbuf any, soff int, rbuf any, roff, count int, dt Datatype, op *Op) (*CollRequest, error) {
	return c.iscan("iscan", c.nextCollTag(), sbuf, soff, rbuf, roff, count, dt, op)
}

func (c *Comm) iscan(name string, tag int, sbuf any, soff int, rbuf any, roff, count int, dt Datatype, op *Op) (*CollRequest, error) {
	comb, err := op.combinerFor(dt)
	if err != nil {
		return nil, err
	}
	data, err := packExact(dt, sbuf, soff, count)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	// result accumulates this rank's prefix; partial is the running
	// combination forwarded to higher ranks. Sends snapshot partial at
	// post time — before the same round's receive folds into it — which
	// preserves the simultaneous-binomial invariant that rank r forwards
	// the combination of ranks (r-mask, r].
	result := &cell{b: data}
	partial := &cell{b: append([]byte(nil), data...)}
	size := c.Size()
	var rs []round
	for mask := 1; mask < size; mask <<= 1 {
		var rd round
		if src := c.rank - mask; src >= 0 {
			rd.recvs = []recvStep{{from: src, on: func(got []byte) error {
				// Everything received comes from lower ranks: fold it
				// into both the running result and the forwarded partial.
				if err := comb(got, result.b); err != nil {
					return err
				}
				return comb(got, partial.b)
			}}}
		}
		if dst := c.rank + mask; dst < size {
			rd.sends = []sendStep{{to: dst, data: func() []byte { return partial.b }}}
		}
		rs = append(rs, rd)
	}
	finish := func() error {
		_, err := dt.Unpack(result.b, rbuf, roff, count)
		return err
	}
	req, err := c.newCollRequest(name, tag, rs, finish)
	if err == nil {
		// Cacheable: reset restarts both running vectors — two distinct
		// buffers, as at build time, since the schedule mutates them
		// independently — from the current send buffer.
		req.cacheable = true
		req.reset = func() error {
			b, err := packExact(dt, sbuf, soff, count)
			if err != nil {
				return err
			}
			result.b = b
			partial.b = append([]byte(nil), b...)
			return nil
		}
	}
	return req, err
}
