package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"ddemos/internal/benchmark"
)

// shape is one workload: the cluster it builds and the load it offers.
type shape struct {
	name       string
	nv         int     // VC nodes
	full       bool    // full cryptographic payload, 3 BB replicas, 3 trustees (ht=2)
	durable    bool    // segmented on-disk stores behind the LRU
	rate       float64 // paced phase: votes per second
	pool       int     // ballots per election
	votes      int     // ballots voted per election, serials 1..votes
	pacedVotes int     // ballots voted in the paced phase; the rest at capacity
	rounds     int     // elections per run
	cacheBytes int64   // LRU bytes per node (durable shape; set at setup)
}

// voteRounds is how many elections a vote workload runs. CPU speed on a
// shared 2-core VM swings by up to 2x within seconds, so short timings
// (setup, tally, audit) are medians over elections spread across the run.
const voteRounds = 6

// pacedWorkers bounds the paced generator's in-flight votes: far above the
// few votes in flight at the paced rates, so the generator never holds a
// scheduled vote back.
const pacedWorkers = 64

// capacityVoters is the capacity phase's closed-loop in-flight bound.
const capacityVoters = 8

// durablePool is the fewest ballots per vote-lan10-durable election.
const durablePool = 512

var workloads = []string{"vote-lan4", "vote-lan10-durable", "election-lan4"}

func workloadNames() string { return strings.Join(workloads, "|") }

// newShape sizes workload name for a run of about the given seconds. Every
// run does a fixed amount of work, so a faster program finishes sooner
// instead of doing more: the retained heap, the tally and the audit then
// cover the same ballots on every run.
//
// A vote workload runs voteRounds elections. Over the run, paced votes take
// three quarters of the seconds and capacity votes about a quarter at the
// capacity measured on a 2-core machine; the paced phase gets the larger
// share because its tail needs the samples. The election workload runs one
// 300-ballot election, about five seconds, per five seconds asked for, and
// at least three.
func newShape(name string, seconds int) (*shape, error) {
	sh := &shape{name: name, rounds: voteRounds}
	var capacity float64 // votes per second at capacity, measured
	switch name {
	case "vote-lan4":
		sh.nv, sh.rate, capacity = 4, 150, 480
	case "vote-lan10-durable":
		sh.nv, sh.rate, capacity, sh.durable = 10, 20, 75, true
	case "election-lan4":
		sh.nv, sh.full, sh.rate = 4, true, 100
		sh.pool, sh.votes, sh.pacedVotes, sh.rounds = 300, 300, 150, max(3, seconds/5)
		return sh, nil
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	perRound := float64(seconds) / voteRounds
	sh.pacedVotes = max(1, int(sh.rate*perRound*3/4))
	sh.votes = sh.pacedVotes + max(1, int(capacity*perRound/4))
	sh.pool = sh.votes
	if sh.durable {
		// The LRU holds an eighth of the pool, and admits only ballots of
		// at most 1/32 of its bytes, so the pool needs a few hundred ballots
		// for the cache to work: the rest of the voters abstain.
		sh.pool = max(sh.votes, durablePool)
	}
	return sh, nil
}

// runner runs one workload and gathers what it measured.
type runner struct {
	sh      *shape
	seed    int64
	seconds time.Duration
	tr      *tracer
	acct    *account
	workDir string
	log     io.Writer

	setups     []setupTimes
	paced      []*benchmark.LoadResult
	latency    *latencies // paced votes, scheduled send to receipt
	pacedStats phaseStats
	capStats   phaseStats
	tallies    []*tallyTimes
	audits     []*auditReport
	pool       int // ballots through consensus, over all elections
	health     health
	bbStats    []bbStats
	peakHeapMB float64 // largest live heap at a phase boundary
	// call latencies of traced and untraced votes (traced runs only)
	callTraced, callPlain *latencies
}

// health sums the counters that must stay zero on an honest run.
type health struct {
	badMessages, badShares, sendErrors int64
}

// bbStats is the publish-phase work of one election's BB replicas.
type bbStats struct {
	combine   time.Duration // slowest replica's combine time
	attempts  int64         // combine attempts, all replicas
	fallbacks int64         // batch-verify fallbacks, all replicas
}

// run runs sh.rounds elections. Each is set up, voted paced and then at
// capacity, tallied, audited and checked.
func (r *runner) run() {
	r.latency = &latencies{}
	if r.tr != nil {
		r.callTraced, r.callPlain = &latencies{}, &latencies{}
	}
	for rep := 0; rep < r.sh.rounds; rep++ {
		e, err := setUp(r.sh, r.seed, rep, r.tr, r.acct, r.workDir)
		if r.acct.phase("setup", err) != nil {
			return
		}
		e.callTraced, e.callPlain = r.callTraced, r.callPlain
		r.setups = append(r.setups, e.setup)
		if rep == 0 {
			r.header()
		}
		r.checkpoint()
		r.votePhases(e)
		r.closePolls(e)
		e.close()
	}
}

// votePhases runs the paced phase over the first sh.pacedVotes ballots and
// then the capacity phase over the rest.
func (r *runner) votePhases(e *election) {
	sh := r.sh
	a := e.read()
	lr, err := e.paced(1, sh.pacedVotes, sh.rate, r.latency)
	if r.acct.phase("paced phase", err) != nil {
		return
	}
	r.paced = append(r.paced, lr)
	r.pacedStats.add(a, e.read(), lr.Completed)
	r.checkpoint()
	b := e.read()
	votes, elapsed := e.capacity(uint64(sh.pacedVotes)+1, uint64(sh.votes)) //nolint:gosec // positive
	r.capStats.add(b, e.read(), votes)
	r.capStats.elapsed += elapsed
	e.settle()
	r.checkpoint()
}

// checkpoint records the live heap between phases.
func (r *runner) checkpoint() {
	r.peakHeapMB = max(r.peakHeapMB, liveHeapMB())
}

// closePolls tallies and audits e, checks its outputs and collects the
// counters its nodes and replicas kept.
func (r *runner) closePolls(e *election) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tt, err := e.tally(ctx)
	if err != nil {
		return
	}
	r.checkpoint()
	ar, err := e.audit(tt)
	if err != nil {
		return
	}
	e.checkOutputs(tt)
	r.tallies = append(r.tallies, tt)
	r.audits = append(r.audits, ar)
	r.pool += r.sh.pool
	for _, n := range e.cluster.VCs {
		s := n.Metrics()
		r.health.badMessages += s.BadMessages
		r.health.badShares += s.BadShares
		r.health.sendErrors += s.SendErrors
	}
	var bs bbStats
	for _, n := range e.cluster.BBs {
		s := n.Metrics()
		bs.combine = max(bs.combine, s.CombineTime)
		bs.attempts += s.CombineAttempts
		bs.fallbacks += s.BatchFallbacks
	}
	r.bbStats = append(r.bbStats, bs)
}

// endToEnd fills the user-facing metrics.
func (r *runner) endToEnd(m metricSet) {
	m.set("setup_s", medianOf(r.setups, func(s setupTimes) float64 { return s.total().Seconds() }), "s")
	p50, p90 := ms(r.latency.Quantile(0.50)), ms(r.latency.Quantile(0.90))
	m.set("vote_p50_ms", p50, "ms")
	m.set("vote_p90_ms", p90, "ms")
	vps := 0.0
	if r.capStats.elapsed > 0 {
		vps = float64(r.capStats.votes) / r.capStats.elapsed.Seconds()
	}
	m.set("vote_capacity_vps", vps, "1/s")
	m.set("tally_s", medianOf(r.tallies, func(t *tallyTimes) float64 { return t.total.Seconds() }), "s")
	m.set("audit_s", medianOf(r.audits, func(a *auditReport) float64 { return a.elapsed.Seconds() }), "s")
	m.set("peak_heap_mb", r.peakHeapMB, "MiB")

	lag := r.maxStartLag()
	fmt.Fprintf(r.log, "# paced: %d samples, p50 %.3f ms, p90 %.3f ms, max start lag %.3f ms; capacity: %d receipts in %v\n",
		r.latency.Count(), p50, p90, ms(lag), r.capStats.votes, r.capStats.elapsed.Round(time.Millisecond))
	if ms(lag) >= p90 {
		fmt.Fprintf(r.log, "# WARNING: generator start lag %.3f ms rivals vote p90 %.3f ms; latencies include generator queueing\n",
			ms(lag), p90)
	}
}

// perLayer fills the per-layer metrics of a traced run.
func (r *runner) perLayer(m metricSet, spans []span) {
	m.set("ea.setup_s", medianOf(r.setups, func(s setupTimes) float64 { return s.ea.Seconds() }), "s")
	m.set("store.build_s", medianOf(r.setups, func(s setupTimes) float64 { return s.store.Seconds() }), "s")
	m.set("core.cluster_s", medianOf(r.setups, func(s setupTimes) float64 { return s.cluster.Seconds() }), "s")

	r.pacedStats.metrics("paced.", m)
	r.capStats.metrics("cap.", m)
	m.set("vc.queue_wait_ms", ms(r.latency.Mean())-r.pacedStats.perVote(float64(r.pacedStats.respondSum)/1e6), "ms")
	m.set("vote.p99_ms", ms(r.latency.Quantile(0.99)), "ms")
	m.set("vote.samples", float64(r.latency.Count()), "count")
	m.set("loadgen.max_start_lag_ms", ms(r.maxStartLag()), "ms")

	m.set("vc.bad_messages", float64(r.health.badMessages), "count")
	m.set("vc.bad_shares", float64(r.health.badShares), "count")
	m.set("vc.send_errors", float64(r.health.sendErrors), "count")

	var frames, bytes int64
	for _, t := range r.tallies {
		frames += t.frames
		bytes += t.bytes
	}
	perBallot := func(v int64) float64 {
		if r.pool == 0 {
			return 0
		}
		return float64(v) / float64(r.pool)
	}
	m.set("vsc.consensus_s", medianOf(r.tallies, func(t *tallyTimes) float64 { return t.consensus.Seconds() }), "s")
	m.set("net.consensus_frames_per_ballot", perBallot(frames), "count")
	m.set("net.consensus_bytes_per_ballot", perBallot(bytes), "B")
	m.set("bb.push_s", medianOf(r.tallies, func(t *tallyTimes) float64 { return t.push.Seconds() }), "s")
	m.set("trustee.publish_s", medianOf(r.tallies, func(t *tallyTimes) float64 { return t.publish.Seconds() }), "s")
	m.set("bb.result_read_ms", medianOf(r.tallies, func(t *tallyTimes) float64 { return ms(t.read) }), "ms")
	m.set("bb.combine_s", medianOf(r.bbStats, func(b bbStats) float64 { return b.combine.Seconds() }), "s")
	m.set("bb.combine_attempts", medianOf(r.bbStats, func(b bbStats) float64 { return float64(b.attempts) }), "count")
	m.set("bb.batch_fallbacks", medianOf(r.bbStats, func(b bbStats) float64 { return float64(b.fallbacks) }), "count")

	var proofs, auditSecs float64
	for _, a := range r.audits {
		proofs += float64(a.proofs)
		auditSecs += a.elapsed.Seconds()
	}
	m.set("audit.proofs_checked", medianOf(r.audits, func(a *auditReport) float64 { return float64(a.proofs) }), "count")
	m.set("audit.openings_checked", medianOf(r.audits, func(a *auditReport) float64 { return float64(a.openings) }), "count")
	if auditSecs > 0 {
		m.set("audit.proofs_per_s", proofs/auditSecs, "1/s")
	} else {
		m.set("audit.proofs_per_s", 0, "1/s")
	}

	self := selfTimes(spans)
	for _, name := range spanNames {
		m.set("self."+name+"_ms", self[name].MeanMs(), "ms")
	}
	m.set("trace.spans", float64(len(spans)), "count")
	overhead := 0.0
	if r.callTraced != nil && r.callTraced.Count() > 0 && r.callPlain.Count() > 0 {
		overhead = ms(r.callTraced.Quantile(0.5)) - ms(r.callPlain.Quantile(0.5))
	}
	m.set("trace.vote_overhead_ms", overhead, "ms")
}

// maxStartLag is the generator's worst lateness over the paced phases.
func (r *runner) maxStartLag() time.Duration {
	var lag time.Duration
	for _, l := range r.paced {
		lag = max(lag, l.MaxStartLag)
	}
	return lag
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
