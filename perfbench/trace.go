package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span names: one per call into a layer the benchmark times from outside,
// plus one root span per benchmark phase. The per-layer self-time metrics
// are keyed by these names, so they are fixed.
const (
	spanSetup     = "run.setup"
	spanPaced     = "run.paced"
	spanCapacity  = "run.capacity"
	spanTally     = "run.tally"
	spanAudit     = "run.audit"
	spanEASetup   = "ea.Setup"
	spanStoreMake = "store.CreateSegmented"
	spanCluster   = "core.NewCluster"
	spanVote      = "vc.SubmitVote"
	spanStoreGet  = "store.Get"
	spanConsensus = "core.RunVoteSetConsensus"
	spanPush      = "core.PushToBB"
	spanPublish   = "trustee.PublishTo"
	spanWait      = "bb.WaitResult"
	spanRead      = "bb.Reader.Result"
	spanAuditor   = "auditor.Audit"
)

// spanNames lists every span name in report order.
var spanNames = []string{
	spanSetup, spanPaced, spanCapacity, spanTally, spanAudit,
	spanEASetup, spanStoreMake, spanCluster, spanVote, spanStoreGet,
	spanConsensus, spanPush, spanPublish, spanWait, spanRead, spanAuditor,
}

// span is one timed call. Start and End are offsets from the tracer's
// epoch; Parent is 0 for a root span; Op is the ballot serial for vote
// and store spans, the repetition or node index otherwise.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Op     uint64        `json:"op"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	open  map[uint64]int64 // vote serial -> its open vc.SubmitVote span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: make(map[uint64]int64)}
}

// sampled reports whether vote op serial is traced. Half the serials are,
// so the untraced half of the same phases measures tracing overhead. The
// halves are picked by a hash of the serial, not its parity: VC nodes
// spread ballots over their workers by serial, so even and odd serials
// see different queues (even ones were 6 ms slower on vote-lan10-durable
// with tracing off).
func (t *tracer) sampled(serial uint64) bool {
	if t == nil {
		return false
	}
	// splitmix64 finalizer
	z := serial + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z^(z>>31))&1 == 0
}

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent int64, op uint64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: now, End: -1})
	if name == spanVote {
		t.open[op] = id
	}
	return id
}

// startUnder opens a span whose parent is the open vote span of serial, if
// one is open: store reads triggered by a vote nest under it.
func (t *tracer) startUnder(name string, serial uint64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	parent := t.open[serial]
	t.mu.Unlock()
	return t.start(name, parent, serial)
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	if s.Name == spanVote && t.open[s.Op] == id {
		delete(t.open, s.Op)
	}
}

// snapshot copies the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// writeSpans writes one JSON object per span to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("writing span %d: %w", s.ID, err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// selfStat is the self time of every span of one name.
type selfStat struct {
	Count int
	Total time.Duration
}

// MeanMs is the mean self time per span in milliseconds.
func (s selfStat) MeanMs() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Total) / float64(s.Count) / 1e6
}

// selfTimes returns, per span name, the spans' self time: each span's
// duration minus the part of its interval that its children cover.
// Children may overlap one another (a vote's store reads run on several
// nodes at once), so the covered part is the union of their intervals.
func selfTimes(spans []span) map[string]selfStat {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]selfStat)
	for _, s := range spans {
		st := out[s.Name]
		st.Count++
		st.Total += s.End - s.Start - covered(s, children[s.ID])
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}
