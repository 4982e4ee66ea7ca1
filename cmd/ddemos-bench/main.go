// ddemos-bench regenerates the tables and figures of the paper's evaluation
// (§V), printing the same series the paper plots. Each figure is a sweep;
// see DESIGN.md ("Substitutions") for the scaled parameter mapping.
//
//	ddemos-bench -fig 4b            # one figure
//	ddemos-bench -fig all           # everything (takes a while)
//	ddemos-bench -fig table1
//	ddemos-bench -fig ablation
//	ddemos-bench -quick             # smaller sweeps
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"ddemos/internal/benchmark"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 4a,4b,4c,4d,4e,4f,5a,5b,5c,table1,ablation,pool,pool-election,store,store-election,tally,setup,all")
	quick := flag.Bool("quick", false, "smaller sweeps for a fast pass")
	authenticated := flag.Bool("authenticated", false, "authenticate inter-VC channels with pairwise HMAC tags (Fig4 sweeps)")
	batchWindow := flag.Duration("batch-window", 0,
		"enable the batched message pipeline with this flush window (Fig4 sweeps; Fig5b always runs the batching ablation and uses this window when set)")
	batchMax := flag.Int("batch-max", 0, "max messages per batch (0 = transport default)")
	consensus := flag.String("consensus", "interlocked",
		"vote-set-consensus engine for full-election runs: 'interlocked' or 'acs' (times the "+
			"consensus phase of Fig5c on the chosen engine)")
	flag.Parse()

	tr := benchmark.TransportOptions{
		Authenticated:    *authenticated,
		BatchWindow:      *batchWindow,
		BatchMaxMessages: *batchMax,
	}

	ballots, votes := 10000, 5000
	vcs, clients, series := benchmark.VCSweep, benchmark.ClientSweep, benchmark.ClientSeries
	pools := benchmark.PoolSweep
	optionSweep := benchmark.OptionSweep
	casts := benchmark.CastSweep
	if *quick {
		ballots, votes = 3000, 1500
		vcs, clients, series = []int{4, 10, 16}, []int{200, 1000}, []int{500}
		pools = []int{10000, 30000, 50000}
		optionSweep = []int{2, 6, 10}
		casts = []int{500, 1000}
	}

	runs := map[string]func() error{
		"4a": func() error { return benchmark.Fig4(os.Stdout, false, vcs, series, ballots, votes, 4, tr) },
		"4b": func() error { return benchmark.Fig4(os.Stdout, false, vcs, series, ballots, votes, 4, tr) },
		"4c": func() error {
			return benchmark.Fig4Clients(os.Stdout, false, []int{4, 7, 10, 13, 16}, clients, ballots, votes, 4, tr)
		},
		"4d": func() error { return benchmark.Fig4(os.Stdout, true, vcs, series, ballots, votes, 4, tr) },
		"4e": func() error { return benchmark.Fig4(os.Stdout, true, vcs, series, ballots, votes, 4, tr) },
		"4f": func() error {
			return benchmark.Fig4Clients(os.Stdout, true, []int{4, 7, 10, 13, 16}, clients, ballots, votes, 4, tr)
		},
		"5a": func() error { return benchmark.Fig5a(os.Stdout, pools, 2000, 400) },
		"5b": func() error {
			return benchmark.Fig5b(os.Stdout, optionSweep, ballots, votes, 400, *batchWindow, *batchMax)
		},
		"5c": func() error { return benchmark.Fig5c(os.Stdout, casts, 4, 100, *consensus) },
		"table1": func() error {
			tcomp, avgVote, err := benchmark.VoteMetricsSample(benchmark.Config{
				Ballots: 1000, Options: 4, VC: 4, Clients: 100, Votes: 1000, Seed: "table1",
			})
			if err != nil {
				return err
			}
			benchmark.PrintTableOne(os.Stdout, 4, tcomp, 0, 300*time.Microsecond, avgVote)
			return nil
		},
		"ablation": func() error {
			for _, wan := range []bool{false, true} {
				res, err := benchmark.RunAblation(2000, 200, 4, wan)
				if err != nil {
					return err
				}
				benchmark.PrintAblation(os.Stdout, res, wan)
			}
			return nil
		},
		"pool": func() error {
			points, err := benchmark.RunPoolAblation(benchmark.PoolAblationConfig{})
			if err != nil {
				return err
			}
			benchmark.PrintPoolAblation(os.Stdout, points)
			return nil
		},
		"store": func() error {
			// The pool deliberately outgrows the cache: the default 240k
			// ballots (~125MiB of records) against a 16MiB budget is the
			// regime where the paper's database-vs-cache ablation runs.
			cfg := benchmark.StoreAblationConfig{Ballots: 240_000, CacheBytes: 16 << 20}
			if *quick {
				cfg = benchmark.StoreAblationConfig{Ballots: 40_000, CacheBytes: 2 << 20}
			}
			points, err := benchmark.RunStoreAblation(cfg)
			if err != nil {
				return err
			}
			benchmark.PrintStoreAblation(os.Stdout, points, cfg)
			return nil
		},
		"store-election": func() error {
			ballotsS, votesS, clientsS := 20_000, 2000, 200
			cacheBytes := int64(1 << 20)
			if *quick {
				ballotsS, votesS, clientsS = 4000, 600, 100
				cacheBytes = 256 << 10
			}
			points, err := benchmark.RunStoreElectionAblation(ballotsS, votesS, clientsS, 4, cacheBytes)
			if err != nil {
				return err
			}
			benchmark.PrintStoreElectionAblation(os.Stdout, points, ballotsS, cacheBytes)
			return nil
		},
		"tally": func() error {
			// Publish-phase pipeline ablation plus the Byzantine combine-cost
			// sweep. The 10k-ballot pool is the regime the ISSUE gates: the
			// batched opening check dominates combine time, so the speedup
			// holds even on a single CPU.
			cfg := benchmark.TallyAblationConfig{Ballots: 10_000, Votes: 500}
			sweepCfg := benchmark.TallyAblationConfig{Ballots: 600, Votes: 60, Trustees: 7}
			if *quick {
				cfg = benchmark.TallyAblationConfig{Ballots: 1500, Votes: 150}
				sweepCfg = benchmark.TallyAblationConfig{Ballots: 200, Votes: 30, Trustees: 7}
			}
			points, err := benchmark.RunTallyAblation(cfg)
			if err != nil {
				return err
			}
			benchmark.PrintTallyAblation(os.Stdout, points, cfg)
			sweep, err := benchmark.RunByzantineTallySweep(sweepCfg, 3)
			if err != nil {
				return err
			}
			benchmark.PrintByzantineTallySweep(os.Stdout, sweep, sweepCfg)
			return nil
		},
		"setup": func() error {
			// The zero-copy setup-to-vote handoff at figure scale: 1M
			// ballots is the pool where the legacy route's O(pool) peak is
			// undeniable (GiBs) while the streaming route stays at
			// O(segment). Expect minutes of EA key material generation.
			cfg := benchmark.SetupAblationConfig{Ballots: 1_000_000}
			if *quick {
				cfg = benchmark.SetupAblationConfig{Ballots: 50_000, SegmentBallots: 10_000}
			}
			points, err := benchmark.RunSetupAblation(cfg)
			if err != nil {
				return err
			}
			benchmark.PrintSetupAblation(os.Stdout, points, cfg)
			return nil
		},
		"pool-election": func() error {
			votesP, clientsP := 1200, 200
			if *quick {
				votesP, clientsP = 400, 100
			}
			points, err := benchmark.RunPoolElectionAblation([]int{1, 2, 4}, votesP, votesP, clientsP, 4)
			if err != nil {
				return err
			}
			benchmark.PrintPoolElectionAblation(os.Stdout, points)
			return nil
		},
	}

	// 4a/4b and 4d/4e share one sweep (latency and throughput of the same
	// runs); dedupe when running everything.
	order := []string{"4a", "4c", "4d", "4f", "5a", "5b", "5c", "table1", "ablation", "pool", "store", "tally", "setup"}
	if *fig == "all" {
		for _, name := range order {
			fmt.Printf("\n===== figure %s =====\n", name)
			if err := runs[name](); err != nil {
				log.Fatalf("figure %s: %v", name, err)
			}
		}
		return
	}
	run, ok := runs[*fig]
	if !ok {
		log.Fatalf("unknown figure %q", *fig)
	}
	if err := run(); err != nil {
		log.Fatalf("figure %s: %v", *fig, err)
	}
}
