package main

import (
	"time"

	"ddemos/internal/vc"
)

// read takes a counters reading of the election's vote path.
func (e *election) read() counters {
	var c counters
	c.readRuntime()
	c.frames, c.netBytes = e.cluster.Net.Stats()
	for _, n := range e.cluster.VCs {
		c.nodes = append(c.nodes, n.Metrics())
	}
	c.diskReads, c.diskNanos = e.gets.Load(), e.nanos.Load()
	return c
}

// phaseStats sums the vote-path work of one kind of phase over the
// elections of a run.
type phaseStats struct {
	votes      int64         // verified receipts
	elapsed    time.Duration // capacity phase: closed-loop time
	frames     int64
	netBytes   int64
	cpu        time.Duration
	allocs     uint64
	allocBytes uint64
	gcPause    float64
	gets, hits int64 // cache lookups and hits, all nodes
	diskReads  int64
	diskNanos  int64
	// respond and endorse hold, summed over elections, the slowest node's
	// mean responder time weighted by the election's receipts.
	respond, endorse time.Duration
	// respondSum is the responder time of every receipt, all nodes.
	respondSum time.Duration
}

// add accumulates the work between readings a and b, during which votes
// receipts were verified.
func (p *phaseStats) add(a, b counters, votes int) {
	p.votes += int64(votes)
	p.frames += b.frames - a.frames
	p.netBytes += b.netBytes - a.netBytes
	p.cpu += b.cpu - a.cpu
	p.allocs += b.allocs - a.allocs
	p.allocBytes += b.allocBytes - a.allocBytes
	p.gcPause += b.gcPause - a.gcPause
	p.diskReads += b.diskReads - a.diskReads
	p.diskNanos += b.diskNanos - a.diskNanos
	var respond, endorse time.Duration
	for i := range b.nodes {
		x, y := a.nodes[i], b.nodes[i]
		p.gets += (y.StoreHits + y.StoreMisses) - (x.StoreHits + x.StoreMisses)
		p.hits += y.StoreHits - x.StoreHits
		sum, n := phaseSum(x, y, func(s vc.Snapshot) time.Duration { return s.AvgVote })
		p.respondSum += sum
		if n > 0 {
			respond = max(respond, sum/n)
		}
		if sum, n := phaseSum(x, y, func(s vc.Snapshot) time.Duration { return s.AvgEndorse }); n > 0 {
			endorse = max(endorse, sum/n)
		}
	}
	p.respond += respond * time.Duration(votes)
	p.endorse += endorse * time.Duration(votes)
}

// phaseSum recovers a node's total responder time over the phase, and the
// votes it answered, from two cumulative means: each vote the node answered
// adds one observation, and VotesAccepted counts them.
func phaseSum(a, b vc.Snapshot, avg func(vc.Snapshot) time.Duration) (time.Duration, time.Duration) {
	n := time.Duration(b.VotesAccepted - a.VotesAccepted)
	return avg(b)*time.Duration(b.VotesAccepted) - avg(a)*time.Duration(a.VotesAccepted), n
}

// perVote divides a total by the receipts (0 without receipts).
func (p *phaseStats) perVote(total float64) float64 {
	if p.votes == 0 {
		return 0
	}
	return total / float64(p.votes)
}

// metrics renders the phase's per-vote figures under prefix.
func (p *phaseStats) metrics(prefix string, m metricSet) {
	m.set(prefix+"net.frames_per_vote", p.perVote(float64(p.frames)), "count")
	m.set(prefix+"net.bytes_per_vote", p.perVote(float64(p.netBytes)), "B")
	m.set(prefix+"proc.cpu_ms_per_vote", p.perVote(float64(p.cpu)/1e6), "ms")
	m.set(prefix+"go.allocs_per_vote", p.perVote(float64(p.allocs)), "count")
	m.set(prefix+"go.alloc_bytes_per_vote", p.perVote(float64(p.allocBytes)), "B")
	m.set(prefix+"go.gc_pause_ms", p.gcPause*1e3, "ms")
	m.set(prefix+"store.gets_per_vote", p.perVote(float64(p.gets)), "count")
	hit := 0.0
	if p.gets > 0 {
		hit = float64(p.hits) / float64(p.gets)
	}
	m.set(prefix+"store.hit_ratio", hit, "ratio")
	m.set(prefix+"store.disk_reads_per_vote", p.perVote(float64(p.diskReads)), "count")
	readUs := 0.0
	if p.diskReads > 0 {
		readUs = float64(p.diskNanos) / float64(p.diskReads) / 1e3
	}
	m.set(prefix+"store.disk_read_us", readUs, "us")
	m.set(prefix+"vc.respond_ms", p.perVote(float64(p.respond)/1e6), "ms")
	m.set(prefix+"vc.endorse_ms", p.perVote(float64(p.endorse)/1e6), "ms")
}
