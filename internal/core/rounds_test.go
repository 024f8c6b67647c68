package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
)

// Pattern conformance for the compiled schedules: the round builders are
// compiled on every rank without running them, and every send must meet
// exactly one receive. For each directed pair the k-th send from src to
// dst (in schedule order) pairs with the k-th receive posted at dst from
// src — the order per-(src, dst) FIFO matching on one tag delivers in —
// and a receive landing in a fixed buffer must be met by a send of that
// exact length. Ranks outside a builder's member list compile nothing.

// memberBuilder compiles one member-list builder on c for members rooted
// at members[rootIdx].
type memberBuilder struct {
	name     string
	pow2Only bool // recursive doubling needs a power-of-two member count
	build    func(c *Comm, members []int, rootIdx int) []round
}

func noComb(in, inout []byte) error { return nil }

func memberBuilders() []memberBuilder {
	const total = 11 // pipelined payload bytes: several segments, the last short
	return []memberBuilder{
		{name: "barrier", build: func(c *Comm, m []int, _ int) []round { return barrierRoundsIn(c, m) }},
		{name: "bcast", build: func(c *Comm, m []int, ri int) []round { return bcastRoundsIn(c, m, &cell{}, ri) }},
		{name: "reduce", build: func(c *Comm, m []int, ri int) []round { return reduceRoundsIn(c, m, &cell{}, noComb, ri) }},
		{name: "rd", pow2Only: true, build: func(c *Comm, m []int, _ int) []round { return rdRoundsIn(c, m, &cell{}, noComb) }},
		{name: "chain/seg3", build: func(c *Comm, m []int, ri int) []round {
			return pipeChainRoundsIn(c, m, make([]byte, total), ri, 3)
		}},
		{name: "binomial-pipe/seg3", build: func(c *Comm, m []int, ri int) []round {
			return pipeBinomialRoundsIn(c, m, make([]byte, total), ri, 3)
		}},
		{name: "binomial-pipe/whole", build: func(c *Comm, m []int, ri int) []round {
			return pipeBinomialRoundsIn(c, m, make([]byte, total), ri, total)
		}},
	}
}

// pairingCheck compiles a schedule on ranks 0..np-1 with compile and
// reports every send/receive that does not pair, and every rank that
// compiled rounds although member(rank) is false.
func pairingCheck(np int, member func(rank int) bool, compile func(c *Comm) []round) error {
	ids := make([]int, np)
	for r := range ids {
		ids[r] = r
	}
	g, err := NewGroup(ids)
	if err != nil {
		return err
	}
	type key struct{ src, dst int }
	sends := map[key][]int{} // payload lengths in schedule order
	recvs := map[key][]int{} // fixed buffer lengths in schedule order, -1 when dynamic
	for r := 0; r < np; r++ {
		rs := compile(&Comm{rank: r, group: g})
		if !member(r) && len(rs) > 0 {
			return fmt.Errorf("rank %d is not a member but compiled %d rounds", r, len(rs))
		}
		for _, rd := range rs {
			for _, st := range rd.recvs {
				n := -1
				if st.buf != nil {
					n = len(st.buf)
				}
				recvs[key{st.from, r}] = append(recvs[key{st.from, r}], n)
			}
			for _, st := range rd.sends {
				n := st.n
				if st.fill == nil {
					n = len(st.data())
				}
				sends[key{r, st.to}] = append(sends[key{r, st.to}], n)
			}
		}
	}
	for k, ss := range sends {
		rv := recvs[k]
		if len(ss) != len(rv) {
			return fmt.Errorf("%d -> %d: %d sends, %d receives", k.src, k.dst, len(ss), len(rv))
		}
		for i, n := range ss {
			if rv[i] >= 0 && rv[i] != n {
				return fmt.Errorf("%d -> %d message %d: %d-byte send into a %d-byte receive", k.src, k.dst, i, n, rv[i])
			}
		}
	}
	for k, rv := range recvs {
		if _, ok := sends[k]; !ok {
			return fmt.Errorf("%d -> %d: %d receives, no sends", k.src, k.dst, len(rv))
		}
	}
	return nil
}

// memberCase is one member-list layout: rank compiles with members(rank),
// rooted at the returned index (a rank's list may differ from another's
// only when the two lists are disjoint, as locality groups are).
type memberCase struct {
	label   string
	np      int
	members func(rank int) ([]int, int)
}

func memberCases() []memberCase {
	var cases []memberCase
	rng := rand.New(rand.NewSource(12))
	for np := 1; np <= 9; np++ {
		ids := make([]int, np)
		for r := range ids {
			ids[r] = r
		}
		for root := 0; root < np; root++ {
			cases = append(cases, memberCase{fmt.Sprintf("np%d/identity/root%d", np, root), np,
				func(int) ([]int, int) { return ids, root }})
		}
		// Random non-contiguous subsets in random order.
		for trial := 0; trial < 4; trial++ {
			sub := rng.Perm(np)[:1+rng.Intn(np)]
			for ri := range sub {
				cases = append(cases, memberCase{fmt.Sprintf("np%d/subset%v/root%d", np, sub, ri), np,
					func(int) ([]int, int) { return sub, ri }})
			}
		}
		// The two phases of the hierarchical schedules on interleaved
		// layouts: locality groups round-robin over the comm ranks, and a
		// seeded random assignment.
		layouts := [][]string{}
		for ng := 2; ng <= 3 && ng <= np; ng++ {
			keys := make([]string, np)
			for r := range keys {
				keys[r] = "g" + strconv.Itoa(r%ng)
			}
			layouts = append(layouts, keys)
		}
		keys := make([]string, np)
		for r := range keys {
			keys[r] = "g" + strconv.Itoa(rng.Intn(3))
		}
		layouts = append(layouts, keys)
		for _, keys := range layouts {
			v := buildLocView(np, keys)
			for root := -1; root < np; root++ {
				hier := func(rank int) hierInfo { return (&Comm{rank: rank}).hierFor(v, root) }
				cases = append(cases,
					memberCase{fmt.Sprintf("np%d/%v/root%d/leaders", np, keys, root), np,
						func(rank int) ([]int, int) { h := hier(rank); return h.leaders, h.rootG }},
					memberCase{fmt.Sprintf("np%d/%v/root%d/mine", np, keys, root), np,
						func(rank int) ([]int, int) { h := hier(rank); return h.mine, h.ldrInG }})
			}
		}
	}
	return cases
}

// TestRoundBuildersPair checks pairing for every member-list builder on
// the identity list with every root, on random member subsets, and on the
// leader and locality-group lists of interleaved layouts, np 1-9.
func TestRoundBuildersPair(t *testing.T) {
	builders := memberBuilders()
	for _, mc := range memberCases() {
		member := func(rank int) bool {
			m, _ := mc.members(rank)
			return memberIdx(m, rank) >= 0
		}
		for _, b := range builders {
			err := pairingCheck(mc.np, member, func(c *Comm) []round {
				m, ri := mc.members(c.rank)
				if b.pow2Only && len(m)&(len(m)-1) != 0 {
					return nil // every rank sharing m skips it alike
				}
				return b.build(c, m, ri)
			})
			if err != nil {
				t.Errorf("%s %s: %v", b.name, mc.label, err)
			}
		}
	}
}

// TestRingAllreducePairs checks pairing for the ring allreduce, which
// always spans the whole communicator: counts below, at and above the
// member count (so some chunks are empty and adjacent chunks round
// differently), each with whole-chunk steps and with segmented ones.
func TestRingAllreducePairs(t *testing.T) {
	const elem = 8
	for np := 1; np <= 9; np++ {
		for _, n := range []int{0, 1, np - 1, np, 3*np + 1, 40} {
			maxChunk := (n + np - 1) / np * elem
			for _, seg := range []int{maxChunk, elem, 2 * elem} {
				err := pairingCheck(np, func(int) bool { return true }, func(c *Comm) []round {
					acc := make([]byte, n*elem)
					return ringAllreduceSegRounds(c, acc, make([]byte, maxChunk), elem, noComb, seg)
				})
				if err != nil {
					t.Errorf("np%d n%d seg%d: %v", np, n, seg, err)
				}
			}
		}
	}
}
