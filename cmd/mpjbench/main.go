// mpjbench regenerates the experiment tables of this repository; the list
// below is the experiment index:
//
//	mpjbench                 # run everything
//	mpjbench -exp F1         # one experiment (F1 F2 E1 E2 E3 E4 E5 E7 A1 A2 BW PP ICOLL TYPED COLL VCOLL)
//	mpjbench -exp pingpong   # alias for PP: ping-pong per device (chan/hyb/tcp)
//	mpjbench -exp icoll      # blocking vs non-blocking collective overlap
//	mpjbench -exp typed      # typed generics facade vs Datatype facade (writes BENCH_typed.json)
//	mpjbench -exp coll       # large-message collective algorithms (writes BENCH_coll.json;
//	                         # with -quick: regression check against the committed file)
//	mpjbench -exp vcoll      # varying-count collectives: Alltoallv layouts + ReduceScatter
//	                         # classic vs ring (writes BENCH_vcoll.json; with -quick:
//	                         # regression check against the committed file)
//	mpjbench -exp ft         # fault tolerance: agreement and shrink latency (writes
//	                         # BENCH_ft.json; with -quick: regression check against
//	                         # the committed file)
//	mpjbench -exp prof       # instrumentation overhead: off vs counters vs trace
//	                         # (writes BENCH_prof.json and per-rank Chrome trace files
//	                         # under BENCH_prof_trace/; with -quick: fails when the
//	                         # counters mode costs >10% over off)
//	mpjbench -exp rma        # one-sided Put/Get/Accumulate+Fence vs two-sided
//	                         # Send/Recv, 4 KiB - 4 MiB (writes BENCH_rma.json; with
//	                         # -quick: regression check against the committed file)
//	mpjbench -exp elastic    # elastic recovery: failure-detection latency and the
//	                         # Shrink+Spawn+Merge rebuild turnaround (writes
//	                         # BENCH_elastic.json; with -quick: regression check
//	                         # against the committed file)
//	mpjbench -tune           # measure algorithm crossovers per device and write
//	                         # the table at MPJ_COLL_TABLE
//
// Only a full run writes a BENCH_*.json file; a -quick run never
// overwrites the committed baseline, it only gates against it.
//
// -hold keeps the process alive for the given duration after the
// experiments finish, so an expvar endpoint served under MPJ_PROF_ADDR
// stays curl-able (the CI observability smoke).
//
// -tune runs no experiment: it sweeps payload x np x algorithm per device,
// derives the measured crossover table, and writes it where MPJ_COLL_TABLE
// points (it fails when the variable is unset), so that processes started
// with the same MPJ_COLL_TABLE prefer the measured thresholds over the
// built-in constants of internal/core/collalg.go. With -quick the sweep
// shrinks to the CI smoke subset.
//
// README.md ("Tuning", "Observability", "Fault tolerance", "Elastic jobs",
// "Benchmarks") and ARCHITECTURE.md describe what each experiment
// measures; the BENCH_*.json files at the repository root hold the
// recorded results.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"mpj"
	"mpj/internal/bench"
	"mpj/internal/core"
	"mpj/internal/daemon"
)

// quick trims sweeps for a fast smoke run.
var quick = flag.Bool("quick", false, "smaller sweeps for a quick run")

func main() {
	exp := flag.String("exp", "", "experiment id (empty = all): F1 F2 E1 E2 E3 E4 E5 E7 A1 A2 BW PP ICOLL TYPED COLL VCOLL FT PROF RMA ELASTIC (alias: pingpong)")
	hold := flag.Duration("hold", 0, "keep the process alive this long after the experiments (for curling an MPJ_PROF_ADDR endpoint)")
	tune := flag.Bool("tune", false, "measure algorithm crossovers per device and write the table MPJ_COLL_TABLE points at (required); -quick trims the sweep to a CI smoke")
	flag.Parse()
	if strings.EqualFold(*exp, "pingpong") {
		*exp = "PP"
	}

	if mpj.Main() {
		return // never happens: mpjbench spawns no process slaves
	}

	if *tune {
		path := os.Getenv(core.CollTableEnv)
		if path == "" {
			log.Fatalf("tune: set %s to the path the crossover table should be written to (jobs read it only from there)", core.CollTableEnv)
		}
		t, err := bench.TuneAndWrite(path, *quick)
		if err != nil {
			log.Fatalf("tune: %v", err)
		}
		t.Print(os.Stdout)
		fmt.Printf("  (crossover table written to %s and re-loaded ok)\n", path)
		return
	}

	sizes := bench.DefaultSizes
	nps := []int{2, 4, 8, 16}
	counts := []int{256, 1024, 4096, 16384, 65536}
	icollCounts := []int{1 << 10, 8 << 10, 64 << 10}
	icollIters := 50
	if *quick {
		sizes = []int{64, 4096, 65536}
		nps = []int{2, 4, 8}
		counts = []int{256, 4096}
		icollCounts = []int{8 << 10}
		icollIters = 20
	}

	experiments := []struct {
		id  string
		run func() (*bench.Table, error)
	}{
		{"F1", func() (*bench.Table, error) { return bench.F1LayerDecomposition(sizes) }},
		{"E1", func() (*bench.Table, error) { return bench.E1ProtocolCrossover(sizes) }},
		{"E2", func() (*bench.Table, error) { return bench.E2ModeLatency([]int{64, 4096, 65536}) }},
		{"E3", func() (*bench.Table, error) { return bench.E3ThreadEconomy(nps) }},
		{"E4", func() (*bench.Table, error) { return bench.E4CollectiveScaling(nps, 128) }},
		{"E5", runE5},
		{"E7", func() (*bench.Table, error) { return bench.E7SerializationOverhead(counts) }},
		{"A1", func() (*bench.Table, error) { return bench.A1AllreduceAblation(4, counts) }},
		{"A2", func() (*bench.Table, error) {
			return bench.A2EagerThresholdSweep(64<<10, []int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10})
		}},
		{"F2", runF2},
		{"BW", func() (*bench.Table, error) { return bench.BandwidthTable(sizes) }},
		{"PP", func() (*bench.Table, error) { return bench.PPDeviceCompare(sizes) }},
		{"ICOLL", func() (*bench.Table, error) { return bench.IcollOverlap(4, icollCounts, icollIters) }},
		{"TYPED", record("BENCH_typed.json", bench.TypedCompare, nil)},
		{"COLL", record("BENCH_coll.json", bench.CollAlgSweep, bench.CollGate)},
		{"VCOLL", record("BENCH_vcoll.json", bench.VcollSweep, bench.VcollGate)},
		{"FT", record("BENCH_ft.json", bench.FTSweep, bench.FTGate)},
		// The quick sweep fails on its own when counters cost more than
		// off·1.10 + 200 ns on the ping-pong; the full run also keeps the
		// trace mode's timelines under BENCH_prof_trace/.
		{"PROF", record("BENCH_prof.json", bench.ProfSweep, nil)},
		{"RMA", record("BENCH_rma.json", bench.RmaSweep, bench.RmaGate)},
		{"ELASTIC", record("BENCH_elastic.json", elasticSweep, bench.ElasticGate)},
	}

	ran := 0
	for _, e := range experiments {
		if *exp != "" && !strings.EqualFold(*exp, e.id) {
			continue
		}
		ran++
		start := time.Now()
		t, err := e.run()
		if err != nil {
			log.Fatalf("experiment %s: %v", e.id, err)
		}
		t.Print(os.Stdout)
		fmt.Printf("  (%s completed in %.1fs)\n", e.id, time.Since(start).Seconds())
	}
	if ran == 0 {
		log.Fatalf("unknown experiment %q", *exp)
	}
	if *hold > 0 {
		fmt.Printf("holding for %s (MPJ_PROF_ADDR endpoint stays up)\n", *hold)
		time.Sleep(*hold)
	}
}

// record returns the runner of a recorded experiment. The full run writes
// the sweep's record to file. A -quick run never writes: when gate is
// non-nil it reads the committed file (skipping the check when there is
// none) and fails when the quick sweep regresses against it — the CI
// smoke gate. An experiment whose sweep checks itself (PROF) or that has
// no gate (TYPED) passes a nil gate.
func record[R any](file string, sweep func(quick bool) (*bench.Table, *bench.Result[R], error),
	gate func(cur, base *bench.Result[R]) error) func() (*bench.Table, error) {
	return func() (*bench.Table, error) {
		t, res, err := sweep(*quick)
		if err != nil {
			return nil, err
		}
		if !*quick {
			js, err := res.Marshal()
			if err != nil {
				return nil, err
			}
			if err := os.WriteFile(file, js, 0o644); err != nil {
				return nil, fmt.Errorf("writing %s: %w", file, err)
			}
			fmt.Printf("  (results recorded in %s)\n", file)
			return t, nil
		}
		if gate == nil {
			fmt.Printf("  (quick run; %s left as committed)\n", file)
			return t, nil
		}
		raw, err := os.ReadFile(file)
		if err != nil {
			fmt.Printf("  (no committed %s; skipping regression check)\n", file)
			return t, nil
		}
		var base bench.Result[R]
		if err := json.Unmarshal(raw, &base); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", file, err)
		}
		if err := gate(res, &base); err != nil {
			return nil, fmt.Errorf("quick run vs committed %s: %w", file, err)
		}
		fmt.Printf("  (within the regression gate of committed %s)\n", file)
		return t, nil
	}
}

// elasticSweep runs the elastic experiment over elasticCycle.
func elasticSweep(quick bool) (*bench.Table, *bench.Result[bench.ElasticBenchRow], error) {
	return bench.ElasticSweep(quick, elasticCycle)
}

// elasticCycle runs one fresh in-process elastic job: the last rank dies
// by broadcasting its own obituary mid-collective, and rank 0 times the
// typed-failure observation (detect) and the Shrink → Spawn → Merge →
// verify turnaround (rebuild).
func elasticCycle(np int) (detect, rebuild time.Duration, err error) {
	victim := np - 1
	var mu sync.Mutex
	var killed time.Time
	app := func(w *mpj.Comm) error {
		if w.Spawned() {
			return elasticGround(w)
		}
		if w.Rank() == victim {
			mu.Lock()
			killed = time.Now()
			mu.Unlock()
			w.Device().BroadcastObit(w.Rank(), "bench kill")
			return nil
		}
		out := []int64{0}
		cerr := w.Allreduce([]int64{1}, 0, out, 0, 1, mpj.LONG, mpj.SUM)
		if cerr == nil {
			return fmt.Errorf("allreduce over a dead member succeeded")
		}
		if !errors.Is(cerr, mpj.ErrRankFailed) {
			return fmt.Errorf("want ErrRankFailed, got: %w", cerr)
		}
		observed := time.Now()
		sw, serr := w.Shrink()
		if serr != nil {
			return fmt.Errorf("shrink: %w", serr)
		}
		ic, serr := sw.Spawn(np - sw.Size())
		if serr != nil {
			return fmt.Errorf("spawn: %w", serr)
		}
		w2, serr := ic.Merge(false)
		if serr != nil {
			return fmt.Errorf("merge: %w", serr)
		}
		if verr := elasticGround(w2); verr != nil {
			return verr
		}
		if w.Rank() == 0 {
			mu.Lock()
			detect = observed.Sub(killed)
			mu.Unlock()
			rebuild = time.Since(observed)
		}
		return nil
	}
	if rerr := mpj.RunLocal(np, app); rerr != nil {
		return 0, 0, rerr
	}
	return detect, rebuild, nil
}

// elasticGround verifies a rebuilt world with a closed-form collective.
func elasticGround(w *mpj.Comm) error {
	n, r := w.Size(), w.Rank()
	out := []int64{0}
	if err := w.Allreduce([]int64{int64(r + 1)}, 0, out, 0, 1, mpj.LONG, mpj.SUM); err != nil {
		return fmt.Errorf("rebuilt-world allreduce: %w", err)
	}
	if want := int64(n) * int64(n+1) / 2; out[0] != want {
		return fmt.Errorf("rebuilt-world allreduce = %d, want %d", out[0], want)
	}
	return w.Barrier()
}

// slaveBody adapts the public runtime for the in-process slaves the F2/E5
// scenarios spawn.
func slaveBody(spec daemon.SlaveSpec, daemonAddr string, stop <-chan struct{}) error {
	return mpj.RunSlave(spec, "", stop)
}

func runF2() (*bench.Table, error) {
	mpj.Register("f2-work", func(w *mpj.Comm) error {
		// A token collective so the slaves genuinely communicate.
		sum := make([]int64, 1)
		return w.Allreduce([]int64{int64(w.Rank())}, 0, sum, 0, 1, mpj.LONG, mpj.SUM)
	})
	return bench.F2DiscoverySpawn(slaveBody, func(locators []string) error {
		return mpj.Run(mpj.JobConfig{
			NP: 4, App: "f2-work", Locators: locators, LeaseDur: 5 * time.Second,
		})
	})
}

func runE5() (*bench.Table, error) {
	mpj.Register("e5-crasher", func(w *mpj.Comm) error {
		if w.Rank() == 1 {
			return fmt.Errorf("injected crash")
		}
		buf := make([]int32, 1)
		_, err := w.Recv(buf, 0, 1, mpj.INT, 1, 0)
		return err
	})
	return bench.E5AbortLatency(slaveBody, func(locators []string) error {
		return mpj.Run(mpj.JobConfig{
			NP: 4, App: "e5-crasher", Locators: locators, LeaseDur: 5 * time.Second,
		})
	})
}
