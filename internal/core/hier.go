package core

import (
	"fmt"
	"strconv"
)

// Topology-aware hierarchical collectives.
//
// The job bootstrap distributes per-rank locality keys (ProcessLocality:
// ranks with equal keys share an OS process and exchange frames over the
// in-process channel mesh; unequal keys mean TCP). This file exposes that
// table through Comm and compiles two-level schedules that exploit it:
// an intra-group phase over the cheap chan-routed peers and an
// inter-group exchange between one elected leader per group over the
// expensive links. On a layout where comm ranks interleave across groups
// the single-level trees and rings cross the expensive links once per
// edge; the two-level schedules cross them O(groups) times total, which
// is the classic path to scaling collectives past one box.
//
// Leader election is deterministic and local — the leader of a locality
// group is its lowest comm rank — so every member compiles the same
// schedule from the same table with no extra communication. For rooted
// operations the root replaces its own group's leader (the "effective
// leader"), removing a root-to-leader hop. Applications that want real
// sub-communicators for their own phases build them from the same
// exposure via the existing Group/Create machinery: Create(LocalityGroup())
// is the intra-group comm, Create(LocalityLeaders()) the leader comm. The
// compiled schedules below deliberately do NOT create sub-communicators:
// both phases concatenate into one schedule on one tag, driven by one
// CollRequest, exactly like iallreduce's reduce+bcast concatenation.
//
// Selection: CollAlgHier forces the family; auto chooses it whenever the
// communicator actually spans ≥2 locality groups with some co-location
// (see collalg.go collHier and the hier_min table knob). Synthetic
// layouts for tests and benchmarks are installed with SetLocalityTable.

// ---------------------------------------------------------------------
// The locality view.
// ---------------------------------------------------------------------

// locView is a communicator's locality structure: its members partitioned
// into co-location groups, in comm-rank space.
type locView struct {
	all     []int   // every comm rank, ascending: the single-level member list
	groups  [][]int // comm ranks per group, each ascending; ordered by lowest member
	groupOf []int   // comm rank -> index into groups
}

// multi reports whether the layout is worth a two-level schedule: at
// least two groups, and co-location somewhere (with only singleton
// groups every link is equally expensive and hierarchy buys nothing).
func (v *locView) multi() bool {
	if len(v.groups) < 2 {
		return false
	}
	for _, g := range v.groups {
		if len(g) >= 2 {
			return true
		}
	}
	return false
}

// buildLocView partitions size comm ranks by locality key. A nil or
// short table means "no locality knowledge": one flat group. An empty
// key means "this rank's locality is unknown": it gets a singleton group
// (always safe — unknown ranks are treated as remote, matching the hyb
// transport's routing rule).
func buildLocView(size int, keys []string) *locView {
	v := &locView{all: make([]int, size), groupOf: make([]int, size)}
	for r := range v.all {
		v.all[r] = r
	}
	if len(keys) != size {
		v.groups = [][]int{v.all}
		return v
	}
	byKey := make(map[string]int)
	for r := 0; r < size; r++ {
		k := keys[r]
		if k == "" {
			// Unknown locality: private singleton group. The sentinel key
			// cannot collide with real keys, which never start with "\x00".
			k = "\x00unknown-" + strconv.Itoa(r)
		}
		gi, seen := byKey[k]
		if !seen {
			gi = len(v.groups)
			byKey[k] = gi
			v.groups = append(v.groups, nil)
		}
		v.groups[gi] = append(v.groups[gi], r)
		v.groupOf[r] = gi
	}
	return v
}

// localityView returns the cached locality structure, computing it on
// first use from the synthetic per-comm table (SetLocalityTable) or,
// absent one, from the device's bootstrap table mapped through the group.
func (c *Comm) localityView() *locView {
	c.locMu.Lock()
	defer c.locMu.Unlock()
	if c.locView != nil {
		return c.locView
	}
	keys := c.locKeys
	if keys == nil {
		if tab := c.dev.LocalityTable(); tab != nil {
			keys = make([]string, c.Size())
			for r := range keys {
				if w := c.group.WorldRank(r); w >= 0 && w < len(tab) {
					keys[r] = tab[w]
				}
			}
		}
	}
	c.locView = buildLocView(c.Size(), keys)
	return c.locView
}

// SetLocalityTable installs a synthetic locality table on this
// communicator, overriding the device's bootstrap table: keys[i] is
// member i's locality key, and members with equal non-empty keys are
// treated as co-located by the hierarchical collectives. Like SetCollAlg
// it must be applied identically on every member before starting
// collectives, or their schedules will not match. A nil table restores
// the device's view. Panics when a non-nil table's length differs from
// the communicator size.
func (c *Comm) SetLocalityTable(keys []string) {
	if keys != nil && len(keys) != c.Size() {
		panic(fmt.Sprintf("mpj: SetLocalityTable: %d keys for a %d-member communicator", len(keys), c.Size()))
	}
	c.locMu.Lock()
	defer c.locMu.Unlock()
	if keys == nil {
		c.locKeys = nil
	} else {
		c.locKeys = append([]string(nil), keys...)
	}
	c.locView = nil
}

// LocalityTable returns the locality keys in effect for this
// communicator's members (a copy: entry i is member i's key), or nil when
// neither a synthetic table nor device locality knowledge exists.
func (c *Comm) LocalityTable() []string {
	c.locMu.Lock()
	if c.locKeys != nil {
		out := append([]string(nil), c.locKeys...)
		c.locMu.Unlock()
		return out
	}
	c.locMu.Unlock()
	tab := c.dev.LocalityTable()
	if tab == nil {
		return nil
	}
	keys := make([]string, c.Size())
	for r := range keys {
		if w := c.group.WorldRank(r); w >= 0 && w < len(tab) {
			keys[r] = tab[w]
		}
	}
	return keys
}

// LocalityGroup returns the group of members co-located with this rank,
// as a Group over world ranks — feed it to Create for an intra-locality
// sub-communicator.
func (c *Comm) LocalityGroup() (*Group, error) {
	v := c.localityView()
	members := v.groups[v.groupOf[c.rank]]
	world := make([]int, len(members))
	for i, r := range members {
		world[i] = c.group.WorldRank(r)
	}
	return NewGroup(world)
}

// LocalityLeaders returns the elected leaders — the lowest comm rank of
// every locality group — as a Group over world ranks, in group order.
// Create(LocalityLeaders()) builds the inter-group communicator (ranks
// that are not leaders receive nil from Create, per its contract).
func (c *Comm) LocalityLeaders() (*Group, error) {
	v := c.localityView()
	world := make([]int, len(v.groups))
	for i, g := range v.groups {
		world[i] = c.group.WorldRank(g[0])
	}
	return NewGroup(world)
}

// ---------------------------------------------------------------------
// Round builders over a member list: the one builder each for the
// binomial broadcast and reduction, recursive doubling, the dissemination
// barrier and the pipelined chain and binomial broadcasts. members is a
// list of comm ranks — the comm's identity list (locView.all) for the
// single-level collectives, a locality group or its leaders for the
// two-level ones — and must be identical on every participating rank;
// ranks not in members compile zero rounds. rootIdx is an index into
// members.
// ---------------------------------------------------------------------

// memberIdx returns rank's position in members, or -1.
func memberIdx(members []int, rank int) int {
	for i, r := range members {
		if r == rank {
			return i
		}
	}
	return -1
}

// bcastRoundsIn compiles the binomial broadcast of cl over members.
func bcastRoundsIn(c *Comm, members []int, cl *cell, rootIdx int) []round {
	n := len(members)
	me := memberIdx(members, c.rank)
	if n <= 1 || me < 0 {
		return nil
	}
	vrank := (me - rootIdx + n) % n
	var rs []round
	lb := pow2ceil(n)
	if vrank != 0 {
		lb = lowbit(vrank)
		parent := members[(vrank-lb+rootIdx)%n]
		rs = append(rs, round{recvs: []recvStep{{
			from: parent,
			on:   func(got []byte) error { cl.b = got; return nil },
		}}})
	}
	var sends []sendStep
	for m := lb >> 1; m > 0; m >>= 1 {
		if vrank+m < n {
			child := members[(vrank+m+rootIdx)%n]
			sends = append(sends, sendStep{to: child, data: func() []byte { return cl.b }})
		}
	}
	if len(sends) > 0 {
		rs = append(rs, round{sends: sends})
	}
	return rs
}

// reduceRoundsIn compiles the binomial reduction of acc toward
// members[rootIdx] with comb.
func reduceRoundsIn(c *Comm, members []int, acc *cell, comb combiner, rootIdx int) []round {
	n := len(members)
	me := memberIdx(members, c.rank)
	if n <= 1 || me < 0 {
		return nil
	}
	vrank := (me - rootIdx + n) % n
	var rs []round
	for mask := 1; mask < n; mask <<= 1 {
		if vrank&mask != 0 {
			parent := members[(vrank-mask+rootIdx)%n]
			rs = append(rs, round{sends: []sendStep{{to: parent, data: func() []byte { return acc.b }}}})
			return rs
		}
		srcV := vrank | mask
		if srcV >= n {
			continue
		}
		rs = append(rs, round{recvs: []recvStep{{
			from: members[(srcV+rootIdx)%n],
			on:   func(got []byte) error { return comb(got, acc.b) },
		}}})
	}
	return rs
}

// rdRoundsIn compiles recursive-doubling allreduce over members
// (power-of-two member counts only).
func rdRoundsIn(c *Comm, members []int, acc *cell, comb combiner) []round {
	n := len(members)
	me := memberIdx(members, c.rank)
	if n <= 1 || me < 0 {
		return nil
	}
	var rs []round
	for mask := 1; mask < n; mask <<= 1 {
		partner := members[me^mask]
		rs = append(rs, round{
			// The send snapshots acc at post time, before this round's
			// combine mutates it.
			recvs: []recvStep{{from: partner, on: func(got []byte) error { return comb(got, acc.b) }}},
			sends: []sendStep{{to: partner, data: func() []byte { return acc.b }}},
		})
	}
	return rs
}

// barrierRoundsIn compiles the dissemination barrier over members.
func barrierRoundsIn(c *Comm, members []int) []round {
	n := len(members)
	me := memberIdx(members, c.rank)
	if n <= 1 || me < 0 {
		return nil
	}
	var rs []round
	for k := 1; k < n; k <<= 1 {
		dst := members[(me+k)%n]
		src := members[(me-k+n)%n]
		rs = append(rs, round{
			recvs: []recvStep{{from: src}},
			sends: []sendStep{{to: dst, data: func() []byte { return nil }}},
		})
	}
	return rs
}

// pipeChainRoundsIn compiles the segmented, pipelined chain broadcast of
// asm over members, rooted at members[rootIdx]: the chain runs in member
// order rotated to start at the root, and in round t each interior member
// receives segment t from its chain predecessor while forwarding segment
// t-1 to its successor. Total time approaches (nseg + n - 2) segment
// times instead of the binomial tree's depth * whole-payload hops, which
// is what makes large broadcasts run at link speed. asm holds the packed
// payload on the root and provides the assembly space — ideally a raw
// window of the user buffer — everywhere else; every member must pass the
// same length.
func pipeChainRoundsIn(c *Comm, members []int, asm []byte, rootIdx, seg int) []round {
	n := len(members)
	me := memberIdx(members, c.rank)
	nseg := segCount(len(asm), seg)
	if n <= 1 || me < 0 || nseg == 0 {
		return nil
	}
	vrank := (me - rootIdx + n) % n
	parent := members[(vrank-1+rootIdx+n)%n]
	child := members[(vrank+1+rootIdx)%n]
	hasChild := vrank < n-1
	var rs []round
	for t := 0; t <= nseg; t++ {
		var rd round
		if vrank > 0 && t < nseg {
			rd.recvs = []recvStep{{from: parent, buf: segOf(asm, t, seg)}}
		}
		if hasChild && t > 0 {
			data := segOf(asm, t-1, seg)
			rd.sends = []sendStep{{to: child, data: func() []byte { return data }}}
		}
		if len(rd.recvs)+len(rd.sends) > 0 {
			rs = append(rs, rd)
		}
	}
	return rs
}

// pipeBinomialRoundsIn compiles the segmented, pipelined binomial
// broadcast of asm over members: the binomial tree of bcastRoundsIn, but
// streaming seg-byte segments down every tree edge instead of whole
// payloads. In round t a non-root member receives segment t from its tree
// parent while forwarding segment t-1 to all of its binomial children.
// The pipeline fills in depth (≈ log2 n) segment times instead of the
// chain's n-1, which wins the mid-size band (the 64–256 KiB dip in
// BENCH_coll.json) where fill latency still matters, at the cost of
// interior members sending each segment to several children. With seg =
// len(asm) it is the unsegmented binomial broadcast over a fixed assembly
// buffer. asm has pipeChainRoundsIn's contract.
func pipeBinomialRoundsIn(c *Comm, members []int, asm []byte, rootIdx, seg int) []round {
	n := len(members)
	me := memberIdx(members, c.rank)
	nseg := segCount(len(asm), seg)
	if n <= 1 || me < 0 || nseg == 0 {
		return nil
	}
	vrank := (me - rootIdx + n) % n
	lb := pow2ceil(n)
	parent := -1
	if vrank != 0 {
		lb = lowbit(vrank)
		parent = members[(vrank-lb+rootIdx)%n]
	}
	var children []int
	for m := lb >> 1; m > 0; m >>= 1 {
		if vrank+m < n {
			children = append(children, members[(vrank+m+rootIdx)%n])
		}
	}
	var rs []round
	for t := 0; t <= nseg; t++ {
		var rd round
		if parent >= 0 && t < nseg {
			rd.recvs = []recvStep{{from: parent, buf: segOf(asm, t, seg)}}
		}
		if len(children) > 0 && t > 0 {
			data := segOf(asm, t-1, seg)
			for _, ch := range children {
				rd.sends = append(rd.sends, sendStep{to: ch, data: func() []byte { return data }})
			}
		}
		if len(rd.recvs)+len(rd.sends) > 0 {
			rs = append(rs, rd)
		}
	}
	return rs
}

// ---------------------------------------------------------------------
// The two-level schedules. Each compiles intra- and inter-group phases
// into ONE schedule on one tag; ranks without steps in a phase simply
// have no rounds for it, and per-(src,dst) FIFO matching keeps the
// concatenation correct (the same property iallreduce's reduce+bcast
// concatenation relies on).
// ---------------------------------------------------------------------

// hierInfo is the layout one two-level schedule compiles against.
type hierInfo struct {
	mine    []int // my locality group's members, ascending comm ranks
	meIdx   int   // my index in mine
	leaders []int // effective leader of each group, in group order
	rootG   int   // index (into leaders) of the root's group; 0 for leaderless ops
	leadIdx int   // my index in leaders, -1 when not a leader
	ldrInG  int   // index (into mine) of my group's effective leader
}

// hierFor elects the effective leaders: the lowest comm rank per group,
// except that a rooted operation's root replaces its own group's leader
// (removing the root-to-leader hop). root < 0 means leaderless.
func (c *Comm) hierFor(v *locView, root int) hierInfo {
	h := hierInfo{mine: v.groups[v.groupOf[c.rank]], leadIdx: -1}
	h.meIdx = memberIdx(h.mine, c.rank)
	h.leaders = make([]int, len(v.groups))
	for i, g := range v.groups {
		h.leaders[i] = g[0]
	}
	if root >= 0 {
		h.rootG = v.groupOf[root]
		h.leaders[h.rootG] = root
	}
	h.leadIdx = memberIdx(h.leaders, c.rank)
	h.ldrInG = memberIdx(h.mine, h.leaders[v.groupOf[c.rank]])
	return h
}

// ihbcast compiles the hierarchical broadcast: the payload first crosses
// the inter-group links once per group (binomial over the effective
// leaders, or a segmented pipelined chain for large payloads), then fans
// out inside each group over the cheap links.
func (c *Comm) ihbcast(name string, tag int, buf any, off, count int, dt Datatype, total, root int) (*CollRequest, error) {
	v := c.localityView()
	h := c.hierFor(v, root)

	asm, finish, reset, err := bcastAssembly(c.rank, root, buf, off, count, dt, total)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	seg := c.collSegSize()
	build, alg, nseg := pipeChainRoundsIn, "hier-pipelined", segCount(total, seg)
	if total < c.largeMin() {
		// Small payloads cross each phase whole, down a binomial tree.
		build, alg, nseg, seg = pipeBinomialRoundsIn, "hier", 0, max(len(asm), 1)
	}
	rounds := append(build(c, h.leaders, asm, h.rootG, seg), build(c, h.mine, asm, h.ldrInG, seg)...)
	req, err := c.newCollRequestAlg(name, tag, alg, nseg, rounds, finish)
	if err == nil {
		// Cacheable like the single-level pipelines: every send reads asm
		// at post time, receives land in it, and the root's reset re-packs
		// it in place.
		req.cacheable = true
		req.reset = reset
	}
	return req, err
}

// ihreduceRounds compiles the hierarchical reduction of acc toward root:
// intra-group binomial reduce to each effective leader, then a binomial
// reduce over the leaders toward the root. Partial results cross the
// inter-group links once per group.
func (c *Comm) ihreduceRounds(acc *cell, comb combiner, root int) []round {
	v := c.localityView()
	h := c.hierFor(v, root)
	rounds := reduceRoundsIn(c, h.mine, acc, comb, h.ldrInG)
	return append(rounds, reduceRoundsIn(c, h.leaders, acc, comb, h.rootG)...)
}

// ihallreduceRounds compiles the hierarchical allreduce on acc: reduce to
// the group leaders, allreduce among the leaders (recursive doubling on a
// power-of-two leader count, reduce+bcast otherwise), then broadcast the
// result back inside each group.
func (c *Comm) ihallreduceRounds(acc *cell, comb combiner) []round {
	v := c.localityView()
	h := c.hierFor(v, -1)
	rounds := reduceRoundsIn(c, h.mine, acc, comb, h.ldrInG)
	if nl := len(h.leaders); nl&(nl-1) == 0 {
		rounds = append(rounds, rdRoundsIn(c, h.leaders, acc, comb)...)
	} else {
		rounds = append(rounds, reduceRoundsIn(c, h.leaders, acc, comb, 0)...)
		rounds = append(rounds, bcastRoundsIn(c, h.leaders, acc, 0)...)
	}
	return append(rounds, bcastRoundsIn(c, h.mine, acc, h.ldrInG)...)
}

// ihbarrierRounds compiles the hierarchical barrier: members check in
// with their group leader, the leaders run a dissemination barrier over
// the expensive links, and the leaders release their groups. Exactly two
// inter-group crossings per leader pair instead of the flat
// dissemination's per-round crossings.
func (c *Comm) ihbarrierRounds() []round {
	v := c.localityView()
	h := c.hierFor(v, -1)
	var rounds []round
	leader := h.mine[h.ldrInG]
	if c.rank != leader {
		rounds = append(rounds,
			round{sends: []sendStep{{to: leader, data: func() []byte { return nil }}}})
	} else if len(h.mine) > 1 {
		var rd round
		for _, m := range h.mine {
			if m != leader {
				rd.recvs = append(rd.recvs, recvStep{from: m})
			}
		}
		rounds = append(rounds, rd)
	}
	rounds = append(rounds, barrierRoundsIn(c, h.leaders)...)
	if c.rank != leader {
		rounds = append(rounds, round{recvs: []recvStep{{from: leader}}})
	} else if len(h.mine) > 1 {
		var rd round
		for _, m := range h.mine {
			if m != leader {
				m := m
				rd.sends = append(rd.sends, sendStep{to: m, data: func() []byte { return nil }})
			}
		}
		rounds = append(rounds, rd)
	}
	return rounds
}

// ihallgather compiles the hierarchical allgather of fixed bs-byte
// blocks: members hand their block to the group leader, the leaders
// exchange whole per-group batches (each group's blocks cross each
// inter-group link exactly once), and each leader broadcasts the
// assembled vector inside its group.
func (c *Comm) ihallgather(name string, tag int, sbuf any, soff, scount int, sdt Datatype,
	rbuf any, roff, rcount int, rdt Datatype) (*CollRequest, error) {
	size := c.Size()
	bs := rcount * rdt.ByteSize()
	v := c.localityView()
	h := c.hierFor(v, -1)
	leader := h.mine[h.ldrInG]

	// Assembly: size slots of bs bytes in comm-rank order — a raw window
	// of rbuf when possible, else staging unpacked at finish.
	var asm []byte
	var finish func() error
	if rw, ok := rdt.(rawWindower); ok {
		if win, ok := rw.window(rbuf, roff, size*rcount); ok {
			asm = win
		}
	}
	if asm == nil {
		staging := make([]byte, size*bs)
		asm = staging
		finish = func() error {
			for r := 0; r < size; r++ {
				if _, err := rdt.Unpack(staging[r*bs:(r+1)*bs], rbuf, roff+r*rcount*rdt.Extent(), rcount); err != nil {
					return err
				}
			}
			return nil
		}
	}
	slot := func(r int) []byte { return asm[r*bs : (r+1)*bs] }

	// Own block lands in its slot at build time.
	if pi, ok := sdt.(packerInto); ok && scount*sdt.ByteSize() == bs {
		if err := pi.PackInto(slot(c.rank), sbuf, soff, scount); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	} else {
		packed, err := packExact(sdt, sbuf, soff, scount)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if len(packed) != bs {
			return nil, fmt.Errorf("%s: %w: packed %d bytes into %d-byte slots", name, ErrCount, len(packed), bs)
		}
		copy(slot(c.rank), packed)
	}

	var rounds []round
	// Phase 1: blocks to the leader, straight into their final slots.
	if c.rank != leader {
		own := slot(c.rank)
		rounds = append(rounds,
			round{sends: []sendStep{{to: leader, data: func() []byte { return own }}}})
	} else if len(h.mine) > 1 {
		var rd round
		for _, m := range h.mine {
			if m != leader {
				rd.recvs = append(rd.recvs, recvStep{from: m, buf: slot(m)})
			}
		}
		rounds = append(rounds, rd)
	}
	// Phase 2: leaders exchange per-group batches, one linear round. The
	// batch is packed into the outgoing frame (fill) because a group's
	// slots need not be contiguous in asm; arrivals scatter likewise.
	if h.leadIdx >= 0 && len(h.leaders) > 1 {
		var rd round
		for gi, l := range h.leaders {
			if l == c.rank {
				continue
			}
			them := v.groups[gi]
			rd.recvs = append(rd.recvs, recvStep{from: l, on: func(got []byte) error {
				if len(got) != len(them)*bs {
					return fmt.Errorf("%w: got %d bytes for a %d-block group", ErrOther, len(got), len(them))
				}
				for i, m := range them {
					copy(slot(m), got[i*bs:(i+1)*bs])
				}
				return nil
			}})
			rd.sends = append(rd.sends, sendStep{to: l, n: len(h.mine) * bs, fill: func(p []byte) error {
				for i, m := range h.mine {
					copy(p[i*bs:(i+1)*bs], slot(m))
				}
				return nil
			}})
		}
		rounds = append(rounds, rd)
	}
	// Phase 3: the assembled vector fans out inside each group.
	build, seg := pipeChainRoundsIn, c.collSegSize()
	if size*bs < c.largeMin() {
		build, seg = pipeBinomialRoundsIn, max(len(asm), 1)
	}
	rounds = append(rounds, build(c, h.mine, asm, h.ldrInG, seg)...)
	return c.newCollRequestAlg(name, tag, "hier", 0, rounds, finish)
}
