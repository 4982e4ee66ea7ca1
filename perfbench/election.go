package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ddemos/internal/auditor"
	"ddemos/internal/ballot"
	"ddemos/internal/bb"
	"ddemos/internal/benchmark"
	"ddemos/internal/core"
	"ddemos/internal/ea"
	"ddemos/internal/store"
	"ddemos/internal/transport"
	"ddemos/internal/trustee"
	"ddemos/internal/vc"
)

// electionOptions are the m = 2 options of every benchmark election.
var electionOptions = []string{"yes", "no"}

// voteTimeout bounds one SubmitVote; a vote that takes longer fails.
const voteTimeout = 10 * time.Second

// settleLimit bounds the wait for every node to record every vote.
const settleLimit = 2 * time.Second

// auditWindow is how long a VC-only audit repeats its verification pass.
const auditWindow = 300 * time.Millisecond

// choice is the generator's decision for one ballot: which part the voter
// uses, which option she marks, and which VC node she sends it to.
type choice struct {
	part ballot.PartID
	opt  int
	node int
}

// choices draws one choice per serial from the workload seed.
func choices(seed int64, rep, ballots, nv int) []choice {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(rep)+0x5eed)) //nolint:gosec // workload generation
	out := make([]choice, ballots)
	for i := range out {
		out[i] = choice{
			part: ballot.PartID(rng.IntN(2)),
			opt:  rng.IntN(len(electionOptions)),
			node: rng.IntN(nv),
		}
	}
	return out
}

// setupTimes splits one setup into the three calls it is made of.
type setupTimes struct {
	ea, store, cluster time.Duration
}

func (s setupTimes) total() time.Duration { return s.ea + s.store + s.cluster }

// election is one seeded election running on an in-process cluster.
type election struct {
	sh      *shape
	tr      *tracer
	acct    *account
	data    *ea.ElectionData
	cluster *core.Cluster
	dir     string        // on-disk stores (durable shape)
	segs    []store.Store // segmented stores to close after the cluster
	choices []choice      // by serial-1
	voted   []atomic.Bool // by serial-1: receipt verified
	setup   setupTimes
	gets    atomic.Int64 // store reads below the cache
	nanos   atomic.Int64

	// call latencies of traced and untraced votes, shared by the run's
	// elections (traced runs only)
	callTraced, callPlain *latencies
}

// setUp builds election rep of the workload: EA setup, the on-disk stores
// of the durable shape, and the cluster.
func setUp(sh *shape, seed int64, rep int, tr *tracer, acct *account, workDir string) (*election, error) {
	root := tr.start(spanSetup, 0, uint64(rep)) //nolint:gosec // small
	defer tr.end(root)
	e := &election{sh: sh, tr: tr, acct: acct}
	start := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
	t0 := time.Now()
	id := tr.start(spanEASetup, root, uint64(rep)) //nolint:gosec // small
	data, err := ea.Setup(ea.Params{
		ElectionID:  fmt.Sprintf("perfbench-%s-%d-%d", sh.name, seed, rep),
		Options:     electionOptions,
		NumBallots:  sh.pool,
		NumVC:       sh.nv,
		NumBB:       3,
		NumTrustees: 3,
		VotingStart: start,
		VotingEnd:   start.Add(24 * time.Hour),
		VCOnly:      !sh.full,
		Seed:        []byte(fmt.Sprintf("perfbench/%d/%d", seed, rep)),
	})
	tr.end(id)
	e.setup.ea = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("ea setup: %w", err)
	}
	e.data = data
	e.choices = choices(seed, rep, sh.votes, sh.nv)
	e.voted = make([]atomic.Bool, sh.votes)

	opts := core.Options{Authenticated: true, BatchWindow: transport.DefaultBatchWindow}
	if sh.durable {
		if err := e.buildStores(&opts, root, workDir); err != nil {
			e.close()
			return nil, err
		}
	}
	t0 = time.Now()
	id = tr.start(spanCluster, root, uint64(rep)) //nolint:gosec // small
	e.cluster, err = core.NewCluster(data, opts)
	tr.end(id)
	e.setup.cluster = time.Since(t0)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("building cluster: %w", err)
	}
	return e, nil
}

// buildStores writes every node's pool to a segmented on-disk store,
// decorated with the read timer, and points the cluster at them with an
// LRU of an eighth of one node's store bytes in front.
func (e *election) buildStores(opts *core.Options, root int64, workDir string) error {
	dir, err := os.MkdirTemp(workDir, "election-")
	if err != nil {
		return err
	}
	e.dir = dir
	t0 := time.Now()
	opts.Stores = make(map[int]store.Store, e.sh.nv)
	for i := 0; i < e.sh.nv; i++ {
		id := e.tr.start(spanStoreMake, root, uint64(i)) //nolint:gosec // small
		seg, err := store.CreateSegmented(filepath.Join(dir, fmt.Sprintf("store-%d", i)),
			e.data.VC[i].Ballots, store.WriterOptions{})
		e.tr.end(id)
		if err != nil {
			return fmt.Errorf("building store %d: %w", i, err)
		}
		e.segs = append(e.segs, seg)
		opts.Stores[i] = timedStore{inner: seg, tr: e.tr, gets: &e.gets, nanos: &e.nanos}
		// The node reads its pool from disk only; drop the in-memory copy.
		e.data.VC[i].Ballots = nil
	}
	e.setup.store = time.Since(t0)
	e.sh.cacheBytes = dirBytes(filepath.Join(dir, "store-0")) / 8
	opts.StoreCache = e.sh.cacheBytes
	return nil
}

// close stops the cluster and removes everything it wrote.
func (e *election) close() {
	if e.cluster != nil {
		e.cluster.Stop()
	}
	for _, s := range e.segs {
		_ = s.Close() // read-only store; nothing to lose
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}

// vote casts serial's ballot as the generator chose and verifies the
// receipt against the one printed on the ballot line. It returns how long
// SubmitVote took.
func (e *election) vote(ctx context.Context, serial uint64, parent int64) (time.Duration, error) {
	c := e.choices[serial-1]
	line := e.data.Ballots[serial-1].Parts[c.part].Lines[c.opt]
	var id int64
	if e.tr.sampled(serial) {
		id = e.tr.start(spanVote, parent, serial)
	}
	t0 := time.Now()
	receipt, err := e.cluster.VCs[c.node].SubmitVote(ctx, serial, line.VoteCode)
	d := time.Since(t0)
	e.tr.end(id)
	if err := e.acct.vote(ctx, receipt, err, line.Receipt); err != nil {
		return d, err
	}
	e.voted[serial-1].Store(true)
	return d, nil
}

// settle waits until every VC node has recorded every receipted vote, or
// settleLimit passes. A receipt returns once enough shares reach its
// responder while other nodes may still be applying theirs; closing the
// polls only after that keeps the tally from racing the last votes.
func (e *election) settle() {
	deadline := time.Now().Add(settleLimit)
	for _, n := range e.cluster.VCs {
		for i := range e.voted {
			if !e.voted[i].Load() {
				continue
			}
			for {
				if st, _ := n.BallotStatus(uint64(i) + 1); st == vc.Voted || time.Now().After(deadline) { //nolint:gosec // i >= 0
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// paced runs the open-loop phase: n votes from serial first on, at rate
// per second. Each verified receipt's latency from its scheduled send time
// goes into lat, which pools the run's elections. RunLoad schedules op i at
// its own start plus i intervals; start is taken just before it, so a
// latency is never understated.
func (e *election) paced(first uint64, n int, rate float64, lat *latencies) (*benchmark.LoadResult, error) {
	id := e.tr.start(spanPaced, 0, first)
	defer e.tr.end(id)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	res, err := benchmark.RunLoad(context.Background(), benchmark.LoadConfig{
		Rate:     rate,
		Duration: time.Duration(n)*interval + interval/2,
		MaxOps:   n,
		Workers:  pacedWorkers,
		Timeout:  voteTimeout,
	}, func(ctx context.Context, op int) error {
		serial := first + uint64(op) //nolint:gosec // op >= 0
		d, err := e.vote(ctx, serial, id)
		if err != nil {
			return err
		}
		lat.Record(time.Since(start.Add(time.Duration(op) * interval)))
		if e.tr != nil {
			// Paced calls only: at capacity they queue behind each other.
			if e.tr.sampled(serial) {
				e.callTraced.Record(d)
			} else {
				e.callPlain.Record(d)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.acct.skipped(res.Skipped)
	return res, nil
}

// capacity runs the closed-loop phase: capacityVoters voters, each sending
// its next ballot when the previous receipt arrives, over serials
// first..last. It returns the receipts and the time they took.
func (e *election) capacity(first, last uint64) (int, time.Duration) {
	id := e.tr.start(spanCapacity, 0, first)
	defer e.tr.end(id)
	var next atomic.Uint64
	next.Store(first)
	var ok atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < capacityVoters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				serial := next.Add(1) - 1
				if serial > last {
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), voteTimeout)
				_, err := e.vote(ctx, serial, id)
				cancel()
				if err == nil {
					ok.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(ok.Load()), time.Since(t0)
}

// tallyTimes splits the close-of-polls pipeline of one election.
type tallyTimes struct {
	total, consensus, push, publish, read time.Duration
	frames, bytes                         int64 // Memnet traffic of consensus
	sets                                  map[int][]vc.VotedBallot
	result                                *bb.Result
}

// tally closes the polls and runs the pipeline to its published output:
// vote-set consensus on every VC node and, with BB replicas, the push, the
// trustees' posts (concurrently, as core.Cluster.RunTrustees does) and
// the wait for every replica's combined Result, then one majority read.
func (e *election) tally(ctx context.Context) (*tallyTimes, error) {
	c := e.cluster
	tt := &tallyTimes{}
	root := e.tr.start(spanTally, 0, 0)
	defer e.tr.end(root)
	f0, b0 := c.Net.Stats()
	t0 := time.Now()
	id := e.tr.start(spanConsensus, root, 0)
	sets, err := c.RunVoteSetConsensus(ctx, nil)
	e.tr.end(id)
	tt.consensus = time.Since(t0)
	f1, b1 := c.Net.Stats()
	tt.frames, tt.bytes, tt.sets = f1-f0, b1-b0, sets
	if err := e.acct.phase("consensus", err); err != nil {
		return nil, err
	}
	if len(c.BBs) == 0 {
		tt.total = time.Since(t0)
		return tt, nil
	}

	t1 := time.Now()
	id = e.tr.start(spanPush, root, 0)
	err = c.PushToBB(sets)
	e.tr.end(id)
	tt.push = time.Since(t1)
	if err := e.acct.phase("push", err); err != nil {
		return nil, err
	}

	t2 := time.Now()
	errs := make([]error, len(c.Trustees))
	var wg sync.WaitGroup
	for i, t := range c.Trustees {
		wg.Add(1)
		go func(i int, t *trustee.Trustee) {
			defer wg.Done()
			id := e.tr.start(spanPublish, root, uint64(i)) //nolint:gosec // small
			errs[i] = t.PublishTo(c.Reader, c.BBs)
			e.tr.end(id)
		}(i, t)
	}
	wg.Wait()
	tt.publish = time.Since(t2)
	for i, err := range errs {
		if err := e.acct.phase(fmt.Sprintf("trustee %d", i), err); err != nil {
			return nil, err
		}
	}
	for i, n := range c.BBs {
		id := e.tr.start(spanWait, root, uint64(i)) //nolint:gosec // small
		_, err := n.WaitResult(ctx)
		e.tr.end(id)
		if err := e.acct.phase(fmt.Sprintf("bb %d result", i), err); err != nil {
			return nil, err
		}
	}
	tt.total = time.Since(t0)

	t3 := time.Now()
	id = e.tr.start(spanRead, root, 0)
	tt.result, err = c.Reader.Result()
	e.tr.end(id)
	tt.read = time.Since(t3)
	if err := e.acct.phase("majority read", err); err != nil {
		return nil, err
	}
	return tt, nil
}

// auditReport is what one audit verified and how long it took.
type auditReport struct {
	elapsed  time.Duration
	proofs   int // ZK proofs, or vote-set signatures without BB replicas
	openings int
}

// audit verifies the published output. With BB replicas that is
// auditor.Audit over the majority reader. A VC-only election publishes
// only the agreed vote set, signed by every node; its audit verifies each
// node's signature over the set it agreed on.
func (e *election) audit(tt *tallyTimes) (*auditReport, error) {
	root := e.tr.start(spanAudit, 0, 0)
	defer e.tr.end(root)
	c := e.cluster
	if len(c.BBs) > 0 {
		t0 := time.Now()
		id := e.tr.start(spanAuditor, root, 0)
		rep, err := auditor.Audit(c.Reader, nil)
		e.tr.end(id)
		ar := &auditReport{elapsed: time.Since(t0)}
		if err := e.acct.phase("audit", err); err != nil {
			return nil, err
		}
		e.acct.check(rep.OK(), "audit failures: %v", rep.Failures)
		ar.proofs, ar.openings = rep.ProofsChecked, rep.OpeningsChecked
		return ar, nil
	}
	sigs := make(map[int][]byte, len(tt.sets))
	for i, set := range tt.sets {
		sigs[i] = c.VCs[i].SignVoteSet(set)
	}
	// One pass takes about a millisecond, too short to time alone on a
	// shared machine, so passes repeat for auditWindow and the mean counts.
	man := &e.data.Manifest
	id := e.tr.start(spanAuditor, root, 0)
	t0 := time.Now()
	passes, good := 0, 0
	for passes == 0 || time.Since(t0) < auditWindow {
		good = 0
		for i, set := range tt.sets {
			if vc.VerifyVoteSetSig(man, i, set, sigs[i]) {
				good++
			}
		}
		passes++
	}
	ar := &auditReport{elapsed: time.Since(t0) / time.Duration(passes), proofs: len(tt.sets)}
	e.tr.end(id)
	e.acct.check(good == len(tt.sets), "%d of %d vote-set signatures verify", good, len(tt.sets))
	return ar, nil
}

// checkOutputs runs the correctness checks on a tallied election: every
// honest replica published the same output, every receipted ballot is in
// the agreed vote set with the code it was cast with, and the published
// counts equal the generator's own count of the options it cast.
func (e *election) checkOutputs(tt *tallyTimes) {
	var ref []vc.VotedBallot
	agree := true
	for i := 0; i < e.sh.nv; i++ {
		set, ok := tt.sets[i]
		switch {
		case !ok:
			agree = false
		case ref == nil:
			ref = set
		default:
			agree = agree && vc.CanonicalVoteSetHash(e.data.Manifest.ElectionID, set) ==
				vc.CanonicalVoteSetHash(e.data.Manifest.ElectionID, ref)
		}
	}
	e.acct.check(agree, "VC nodes agreed on different vote sets")

	if tt.result != nil {
		cast, err := e.cluster.Reader.Cast()
		if e.acct.phase("majority cast read", err) == nil {
			ref = cast.VoteSet
		}
		want, err := canonicalResult(tt.result)
		same := err == nil
		for i, n := range e.cluster.BBs {
			r, err := n.Result()
			if err != nil {
				same = false
				e.acct.note("bb %d result: %v", i, err)
				continue
			}
			got, err := canonicalResult(r)
			same = same && err == nil && bytes.Equal(got, want)
		}
		e.acct.check(same, "BB replicas published different results")
		counts := e.castCounts()
		match := len(tt.result.Counts) == len(counts)
		for i := range counts {
			match = match && tt.result.Counts[i] == counts[i]
		}
		e.acct.check(match, "published counts %v, generator cast %v", tt.result.Counts, counts)
	}

	inSet := make(map[uint64][]byte, len(ref))
	for _, vb := range ref {
		inSet[vb.Serial] = vb.Code
	}
	missing := 0
	for i := range e.voted {
		if !e.voted[i].Load() {
			continue
		}
		c := e.choices[i]
		code := e.data.Ballots[i].Parts[c.part].Lines[c.opt].VoteCode
		if !bytes.Equal(inSet[uint64(i)+1], code) { //nolint:gosec // i >= 0
			missing++
		}
	}
	e.acct.check(missing == 0, "%d receipted ballots missing from the agreed vote set", missing)
}

// castCounts is the generator's tally of the options it got receipts for.
func (e *election) castCounts() []int64 {
	counts := make([]int64, len(electionOptions))
	for i := range e.voted {
		if e.voted[i].Load() {
			counts[e.choices[i].opt]++
		}
	}
	return counts
}

// canonicalResult encodes a Result without the trustee subset that
// produced it, which honest replicas may legitimately differ on. Gob
// encodes big.Int by value, so equal results encode equally.
func canonicalResult(r *bb.Result) ([]byte, error) {
	c := *r
	c.Trustees = nil
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
