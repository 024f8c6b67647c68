package bench

import (
	"fmt"
	"net"
	"sync"

	"mpj/internal/core"
	"mpj/internal/transport"
)

// runJobHybGroups runs an np-rank in-process job over a synthetic
// multi-group hybrid mesh: ranks are dealt cyclically across `groups`
// locality keys ("g0", "g1", ...), so neighbors in rank order sit in
// different groups. Intra-group traffic rides the channel mesh while
// inter-group traffic crosses genuine localhost TCP — the layout the
// hierarchical collectives are built for, and (being cyclic) the one
// where single-level schedules pay the worst TCP bill.
func runJobHybGroups(np, groups int, fn func(w *core.Comm) error) error {
	if groups < 2 || groups > np {
		return fmt.Errorf("bench: %d locality groups for %d ranks", groups, np)
	}
	keys := make([]string, np)
	for i := range keys {
		keys[i] = fmt.Sprintf("g%d", i%groups)
	}
	lns := make([]net.Listener, np)
	addrs := make([]string, np)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("bench: listener for rank %d: %w", i, err)
		}
		defer ln.Close()
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	jobID := benchJobID()

	// NewHybTransport blocks until the TCP half of the mesh handshakes, so
	// the endpoints must be constructed concurrently, before runJobOn's
	// sequential per-rank loop.
	eps := make([]transport.Transport, np)
	errs := make([]error, np)
	var wg sync.WaitGroup
	for i := 0; i < np; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			eps[i], errs[i] = transport.NewHybTransport(transport.HybConfig{
				Rank: i, JobID: jobID, Locs: keys, Addrs: addrs, Listener: lns[i],
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("bench: hyb rank %d: %w", i, err)
		}
	}
	return runJobOn(np, func(rank int) (transport.Transport, error) { return eps[rank], nil }, nil, fn)
}
