// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V), one testing.B benchmark per exhibit. Each benchmark runs a
// representative slice of the paper's parameter sweep and prints the same
// series rows the paper plots; cmd/ddemos-bench runs the full sweeps.
// Parameter scales (ballot pools, cast counts) are documented in DESIGN.md
// ("Substitutions"); measured trends live in docs/BENCH.md.
package ddemos

import (
	"fmt"
	"os"
	"testing"
	"time"

	"ddemos/internal/benchmark"
)

// Benchmark workload sizes: a single-host slice of the paper's testbed
// workload (12 machines, 200k cast ballots). Each figure keeps the paper's
// relative parameter ranges.
const (
	benchBallots = 4000
	benchVotes   = 2000
	benchOptions = 4
)

var (
	benchVCPoints     = []int{4, 10, 16}
	benchClientPoints = []int{200, 500}
)

// runFig4 is shared by the four vote-collection-vs-Nv benchmarks.
func runFig4(b *testing.B, wan bool, latency bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var lastTput float64
		var lastLat time.Duration
		for _, nv := range benchVCPoints {
			res, err := benchmark.Run(benchmark.Config{
				Ballots: benchBallots, Options: benchOptions, VC: nv,
				Clients: benchClientPoints[0], Votes: benchVotes, WAN: wan,
				Seed: b.Name(),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("nv=%d cc=%d latency=%v throughput=%.1f op/s",
				nv, benchClientPoints[0], res.AvgLatency.Round(time.Microsecond), res.Throughput)
			lastTput = res.Throughput
			lastLat = res.AvgLatency
		}
		if latency {
			b.ReportMetric(float64(lastLat.Milliseconds()), "ms/vote@16vc")
		} else {
			b.ReportMetric(lastTput, "votes/sec@16vc")
		}
	}
}

// BenchmarkFig4aLatencyVsVCLan — Fig. 4a: receipt latency vs #VC, LAN.
func BenchmarkFig4aLatencyVsVCLan(b *testing.B) { runFig4(b, false, true) }

// BenchmarkFig4bThroughputVsVCLan — Fig. 4b: throughput vs #VC, LAN.
func BenchmarkFig4bThroughputVsVCLan(b *testing.B) { runFig4(b, false, false) }

// BenchmarkFig4dLatencyVsVCWan — Fig. 4d: receipt latency vs #VC, WAN
// (25 ms inter-VC links).
func BenchmarkFig4dLatencyVsVCWan(b *testing.B) { runFig4(b, true, true) }

// BenchmarkFig4eThroughputVsVCWan — Fig. 4e: throughput vs #VC, WAN.
func BenchmarkFig4eThroughputVsVCWan(b *testing.B) { runFig4(b, true, false) }

// runFig4Clients is shared by the throughput-vs-concurrency benchmarks.
func runFig4Clients(b *testing.B, wan bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var last float64
		for _, cc := range benchClientPoints {
			res, err := benchmark.Run(benchmark.Config{
				Ballots: benchBallots, Options: benchOptions, VC: 4,
				Clients: cc, Votes: benchVotes, WAN: wan,
				Seed: b.Name(),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("cc=%d nv=4 throughput=%.1f op/s", cc, res.Throughput)
			last = res.Throughput
		}
		b.ReportMetric(last, "votes/sec")
	}
}

// BenchmarkFig4cThroughputVsClientsLan — Fig. 4c: throughput vs #cc, LAN.
func BenchmarkFig4cThroughputVsClientsLan(b *testing.B) { runFig4Clients(b, false) }

// BenchmarkFig4fThroughputVsClientsWan — Fig. 4f: throughput vs #cc, WAN.
func BenchmarkFig4fThroughputVsClientsWan(b *testing.B) { runFig4Clients(b, true) }

// BenchmarkFig5aThroughputVsPool — Fig. 5a: throughput vs ballot-pool size
// with the disk-backed store (the paper sweeps 50M–250M on PostgreSQL;
// scaled here, same ×5 pool growth).
func BenchmarkFig5aThroughputVsPool(b *testing.B) {
	dir := b.TempDir()
	pools := []int{10000, 30000, 50000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var last float64
		for _, n := range pools {
			res, err := benchmark.Run(benchmark.Config{
				Ballots: n, Options: 2, VC: 4,
				Clients: 400, Votes: 2000, Disk: true, DiskDir: dir,
				Seed: b.Name(),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("n=%d throughput=%.1f op/s", n, res.Throughput)
			last = res.Throughput
		}
		b.ReportMetric(last, "votes/sec@maxpool")
	}
}

// BenchmarkFig5bThroughputVsOptions — Fig. 5b: throughput vs number of
// options m (paper: 2–10; throughput should stay nearly flat), extended with
// the batched-vs-unbatched transport ablation: each m is measured on plain
// channels, on authenticated channels (one MAC tag per message), and on
// authenticated channels over the batched pipeline (one tag per batch). The
// signed-vs-batched delta isolates the coalescing win on the LAN profile.
// The CI baseline gates batched-frames-ratio (frames per vote, per-message
// over batched): a count, which runner speed cannot move.
func BenchmarkFig5bThroughputVsOptions(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var last benchmark.Fig5bRow
		var lastSpeedup float64
		for _, m := range []int{2, 6, 10} {
			row, err := benchmark.Fig5bPoint(m, benchBallots, benchVotes, 400, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			lastSpeedup = 0
			if row.Signed > 0 {
				lastSpeedup = row.Batched / row.Signed
			}
			b.Logf("m=%d plain=%.1f signed=%.1f signed+batched=%.1f op/s (batching speedup %.2fx, frames/vote %.1f -> %.1f)",
				m, row.Plain, row.Signed, row.Batched, lastSpeedup, row.SignedFrames, row.BatchedFrames)
			last = row
		}
		// votes/sec@m=10 keeps its pre-ablation meaning (the plain
		// configuration) so cross-commit benchstat series stay comparable.
		b.ReportMetric(last.Plain, "votes/sec@m=10")
		b.ReportMetric(last.Batched, "batched-votes/sec@m=10")
		b.ReportMetric(lastSpeedup, "batched-speedup@m=10")
		b.ReportMetric(last.FramesRatio(), "batched-frames-ratio@m=10")
	}
}

// BenchmarkFig5cPhaseBreakdown — Fig. 5c: duration of every system phase
// (vote collection, vote-set consensus, push-to-BB + encrypted tally,
// publish result) vs ballots cast, full pipeline with BB and trustees.
func BenchmarkFig5cPhaseBreakdown(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, n := range []int{500, 1000} {
			res, err := benchmark.RunPhases(benchmark.PhasesConfig{
				Ballots: n, Options: benchOptions, VC: 4, Clients: 100,
				Seed: b.Name(),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("cast=%d collect=%v consensus=%v push+tally=%v publish=%v",
				n, res.Collection.Round(time.Millisecond), res.Consensus.Round(time.Millisecond),
				res.Push.Round(time.Millisecond), res.Publish.Round(time.Millisecond))
			if n == 1000 {
				b.ReportMetric(res.Publish.Seconds(), "publish-sec@1000")
			}
		}
	}
}

// BenchmarkWALAblation — the durability tax: the identical vote-collection
// workload with runtime-state journaling (WAL + snapshot, batched fsync)
// off and on. The on/off ratio is machine-independent and is the metric the
// CI benchmark-tracking job gates on: at default group-commit batching, the
// journaled hot path must stay within 30% of memory-only throughput.
func BenchmarkWALAblation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		row, err := benchmark.RunWALAblation(benchBallots, benchVotes, 400, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("wal-off=%.1f op/s wal-on=%.1f op/s ratio=%.3f", row.Off, row.On, row.Ratio())
		b.ReportMetric(row.Off, "wal-off-votes/sec")
		b.ReportMetric(row.On, "wal-on-votes/sec")
		b.ReportMetric(row.Ratio(), "wal-ratio")
	}
}

// BenchmarkPoolAblation — the journal pool sweep (the paper's Fig. 5a
// applied to runtime state): concurrent appenders writing protocol-shaped
// transition records through the single-WAL engine and through sharded
// pools of 2, 4 and 8 WAL lanes, per-append fsync. One column per pool
// size lands in the benchjson artifact; the baseline gates the pooled
// speedups (pool>=4 must stay >= 1.3x single-WAL).
func BenchmarkPoolAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := benchmark.RunPoolAblation(benchmark.PoolAblationConfig{
			Duration: 500 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range points {
			b.Logf("pool=%d appends/sec=%.0f speedup=%.2f", pt.Pool, pt.AppendsPerSec, pt.Speedup)
			b.ReportMetric(pt.AppendsPerSec, fmt.Sprintf("pool%d-appends/sec", pt.Pool))
			if pt.Pool > 1 {
				b.ReportMetric(pt.Speedup, fmt.Sprintf("pool-speedup@%d", pt.Pool))
			}
		}
	}
}

// BenchmarkStoreAblation — the ballot-store read path (the paper's Fig.
// 4/5a database-vs-cache ablation): the same protocol-shaped read workload
// (every serial touched ~3 times within a short window, streaming once
// through a pool that outgrows the cache budget) against the in-memory
// store, the v1 flat file, the segmented store, and the segmented store
// behind the admission-controlled LRU. The CI baseline gates cache-speedup
// (segmented+cache vs uncached flat-disk) — a ratio, so runner speed and
// page-cache state cannot flap the gate.
func BenchmarkStoreAblation(b *testing.B) {
	cfg := benchmark.StoreAblationConfig{Ballots: 60_000, CacheBytes: 4 << 20}
	for i := 0; i < b.N; i++ {
		points, err := benchmark.RunStoreAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		byName := map[string]benchmark.StorePoint{}
		for _, pt := range points {
			byName[pt.Config] = pt
			b.Logf("config=%s gets/sec=%.0f vs-flat=%.2f", pt.Config, pt.GetsPerSec, pt.Speedup)
		}
		b.ReportMetric(byName["mem"].GetsPerSec, "mem-gets/sec")
		b.ReportMetric(byName["flat-disk"].GetsPerSec, "flat-gets/sec")
		b.ReportMetric(byName["segmented"].GetsPerSec, "seg-gets/sec")
		b.ReportMetric(byName["segmented+cache"].GetsPerSec, "segcache-gets/sec")
		b.ReportMetric(byName["segmented"].Speedup, "seg-speedup")
		b.ReportMetric(byName["segmented+cache"].Speedup, "cache-speedup")
		b.ReportMetric(byName["segmented+cache"].HitRate, "cache-hit-rate")
	}
}

// BenchmarkSetupAblation — the EA → VC setup handoff (the zero-copy
// setup-to-vote path): the identical seeded election generated and handed
// to a VC through the legacy whole-pool gob route (materialize, encode,
// decode, build segments on first boot) and through the streaming route
// (SetupStream emits straight into per-VC segment directories the VC opens
// directly). Reported per route: setup wall time, peak heap while setting
// up, and the VC's cold-start time. The CI baseline gates setup-mem-ratio
// (legacy peak heap / streaming peak heap) — a ratio, machine-independent,
// and it grows with pool size (legacy is O(pool), streaming O(segment)),
// so the bench-size pool floors it.
func BenchmarkSetupAblation(b *testing.B) {
	cfg := benchmark.SetupAblationConfig{Ballots: 10_000, SegmentBallots: 1_000}
	for i := 0; i < b.N; i++ {
		points, err := benchmark.RunSetupAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		byName := map[string]benchmark.SetupPoint{}
		for _, pt := range points {
			byName[pt.Route] = pt
			b.Logf("route=%s setup=%.2fs peak-heap=%.1fMB coldstart=%.3fs mem-ratio=%.2f",
				pt.Route, pt.SetupSec, pt.PeakHeapMB, pt.ColdStartSec, pt.MemRatio)
		}
		b.ReportMetric(byName["legacy"].SetupSec, "legacy-setup-sec")
		b.ReportMetric(byName["streaming"].SetupSec, "streaming-setup-sec")
		b.ReportMetric(byName["legacy"].PeakHeapMB, "legacy-peak-heap-mb")
		b.ReportMetric(byName["streaming"].PeakHeapMB, "streaming-peak-heap-mb")
		b.ReportMetric(byName["legacy"].ColdStartSec, "legacy-coldstart-sec")
		b.ReportMetric(byName["streaming"].ColdStartSec, "streaming-coldstart-sec")
		b.ReportMetric(byName["streaming"].MemRatio, "setup-mem-ratio")
	}
}

// BenchmarkTallyAblation — the publish-phase pipeline sweep: the same
// trustee posts combined sequentially (the seed's per-element verification),
// in parallel, and through the batched random-linear-combination verifier.
// The CI baseline gates tally-speedup (parallel+batched vs sequential) — a
// ratio of combine times over identical work, so runner speed cannot flap
// the gate; on a single-CPU runner the win comes from batching alone. The
// Byzantine sweep rides along: combine cost must grow linearly with the
// number of garbage-share trustees (blame, not the seed's exponential
// subset search).
func BenchmarkTallyAblation(b *testing.B) {
	cfg := benchmark.TallyAblationConfig{Ballots: 2_000, Votes: 200}
	sweepCfg := benchmark.TallyAblationConfig{Ballots: 200, Votes: 30, Trustees: 7}
	for i := 0; i < b.N; i++ {
		points, err := benchmark.RunTallyAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		byName := map[string]benchmark.TallyPoint{}
		for _, pt := range points {
			byName[pt.Config] = pt
			b.Logf("config=%s combine=%.3fs audit=%.3fs speedup=%.2f fallbacks=%d",
				pt.Config, pt.CombineSec, pt.AuditSec, pt.Speedup, pt.Fallbacks)
		}
		b.ReportMetric(byName["sequential"].CombineSec, "seq-combine-sec")
		b.ReportMetric(byName["parallel+batched"].CombineSec, "batched-combine-sec")
		b.ReportMetric(byName["parallel+batched"].AuditSec, "batched-audit-sec")
		b.ReportMetric(byName["parallel+batched"].Speedup, "tally-speedup")

		sweep, err := benchmark.RunByzantineTallySweep(sweepCfg, 3)
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range sweep {
			b.Logf("garbage=%d combine=%.3fs attempts=%d blames=%d",
				pt.Garbage, pt.CombineSec, pt.Attempts, pt.Blames)
		}
		if n := len(sweep); n >= 2 && sweep[0].CombineSec > 0 {
			b.ReportMetric(sweep[n-1].CombineSec/sweep[0].CombineSec,
				fmt.Sprintf("byz-combine-cost@%d", sweep[n-1].Garbage))
		}
	}
}

// BenchmarkTable1StepBounds — Table I: evaluates the liveness time upper
// bounds for every protocol step from measured Tcomp and the simulated
// network's δ, and checks the measured end-to-end latency against Twait.
func BenchmarkTable1StepBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tcomp, avgVote, err := benchmark.VoteMetricsSample(benchmark.Config{
			Ballots: 500, Options: benchOptions, VC: 4,
			Clients: 50, Votes: 500, Seed: b.Name(),
		})
		if err != nil {
			b.Fatal(err)
		}
		delay := 300 * time.Microsecond // LAN profile latency + jitter/2
		benchmark.PrintTableOne(os.Stdout, 4, tcomp, 0, delay, avgVote)
		tw := benchmark.Twait(4, tcomp, 0, delay)
		b.ReportMetric(float64(tw.Microseconds()), "Twait-us")
	}
}

// BenchmarkAblationSMRBaseline quantifies §II's design argument: the same
// pipeline with per-vote total ordering versus D-DEMOS's coordination-free
// collection, in both LAN and WAN settings.
func BenchmarkAblationSMRBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, wan := range []bool{false, true} {
			res, err := benchmark.RunAblation(1000, 200, 4, wan)
			if err != nil {
				b.Fatal(err)
			}
			net := "LAN"
			if wan {
				net = "WAN"
			}
			b.Logf("%s: d-demos %.1f op/s / %v ; +total-order %.1f op/s / %v",
				net, res.DDemosThroughput, res.DDemosLatency.Round(time.Microsecond),
				res.SMRThroughput, res.SMRLatency.Round(time.Microsecond))
			if wan {
				b.ReportMetric(res.DDemosThroughput/res.SMRThroughput, "speedup-wan")
			}
		}
	}
}
