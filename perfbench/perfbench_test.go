package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"ddemos/internal/benchmark"
)

func TestAccountCountsEachFailureOnce(t *testing.T) {
	var a account
	want := []byte("receipt")
	ctx := context.Background()
	expired, cancel := context.WithTimeout(ctx, -time.Second)
	defer cancel()

	if err := a.vote(ctx, want, nil, want); err != nil {
		t.Fatalf("good vote: %v", err)
	}
	if err := a.vote(ctx, nil, errors.New("refused"), want); err == nil {
		t.Fatal("errored vote passed")
	}
	if err := a.vote(expired, nil, context.DeadlineExceeded, want); err == nil {
		t.Fatal("timed-out vote passed")
	}
	if err := a.vote(ctx, []byte("other"), nil, want); !errors.Is(err, errWrongReceipt) {
		t.Fatalf("wrong receipt: got %v", err)
	}
	if a.attempted.Load() != 4 || a.failed() != 3 {
		t.Fatalf("attempted %d failed %d, want 4 and 3", a.attempted.Load(), a.failed())
	}
	if a.errors.Load() != 1 || a.timeouts.Load() != 1 || a.wrong.Load() != 1 {
		t.Fatalf("errors %d timeouts %d wrong %d, want 1 each", a.errors.Load(), a.timeouts.Load(), a.wrong.Load())
	}
	if a.correct() {
		t.Fatal("a wrong receipt must make the run incorrect")
	}

	var b account
	_ = b.phase("consensus", nil)
	_ = b.phase("push", errors.New("down"))
	b.check(true, "fine")
	b.check(false, "broken")
	b.skipped(2)
	if b.attempted.Load() != 6 || b.failed() != 4 {
		t.Fatalf("attempted %d failed %d, want 6 and 4", b.attempted.Load(), b.failed())
	}
	if b.correct() {
		t.Fatal("a failed phase or check must make the run incorrect")
	}
	var c account
	_ = c.vote(ctx, nil, errors.New("refused"), want)
	if !c.correct() || c.failed() != 1 {
		t.Fatal("an errored vote is a failure, not a wrong output")
	}
}

func TestPercentilesAndSampleCounts(t *testing.T) {
	lat := &latencies{}
	for i := 1000; i >= 1; i-- {
		lat.Record(time.Duration(i) * 10 * time.Microsecond)
	}
	r := &runner{log: io.Discard, latency: lat, paced: []*benchmark.LoadResult{
		{MaxStartLag: 2 * time.Millisecond}, {MaxStartLag: 5 * time.Millisecond}, {MaxStartLag: time.Millisecond},
	}}
	e2e, layers := metricSet{}, metricSet{}
	r.endToEnd(e2e)
	r.perLayer(layers, nil)
	for _, c := range []struct {
		m    metricSet
		name string
		want float64
	}{
		{e2e, "vote_p50_ms", 5},
		{e2e, "vote_p90_ms", 9},
		{layers, "vote.p99_ms", 9.9},
	} {
		if got := c.m[c.name].Value; got != c.want {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
	if got := layers["vote.samples"].Value; got != 1000 {
		t.Errorf("vote.samples = %v, want 1000", got)
	}
	if got := layers["loadgen.max_start_lag_ms"].Value; got != 5 {
		t.Errorf("max start lag = %v ms, want the worst phase's 5", got)
	}
}

func TestSelfTimeOfHandBuiltTree(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		// Two overlapping children cover 10..40; a third covers 60..70.
		{ID: 2, Parent: 1, Name: "kid", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "kid", Start: 20 * ms, End: 40 * ms},
		{ID: 4, Parent: 1, Name: "kid", Start: 60 * ms, End: 70 * ms},
		// A grandchild covers half of span 4; a child outliving its
		// parent counts only inside the parent.
		{ID: 5, Parent: 4, Name: "leaf", Start: 65 * ms, End: 75 * ms},
	}
	got := selfTimes(spans)
	want := map[string]selfStat{
		"root": {Count: 1, Total: 60 * ms},
		"kid":  {Count: 3, Total: 20*ms + 20*ms + 5*ms},
		"leaf": {Count: 1, Total: 10 * ms},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
	if m := got["kid"].MeanMs(); m != 15 {
		t.Fatalf("kid mean self = %v ms, want 15", m)
	}
}

func TestTracerNestsStoreReadsUnderTheirVote(t *testing.T) {
	tr := newTracer()
	phase := tr.start(spanPaced, 0, 1)
	vote := tr.start(spanVote, phase, 42)
	get := tr.startUnder(spanStoreGet, 42)
	tr.end(get)
	tr.end(vote)
	late := tr.startUnder(spanStoreGet, 42) // after the receipt: a root span
	tr.end(late)
	open := tr.start(spanVote, phase, 44) // never closed: not reported
	_ = open
	tr.end(phase)

	spans := tr.snapshot()
	if len(spans) != 4 {
		t.Fatalf("%d closed spans, want 4", len(spans))
	}
	parents := map[int64]int64{}
	for _, s := range spans {
		parents[s.ID] = s.Parent
	}
	if parents[get] != vote || parents[vote] != phase || parents[late] != 0 {
		t.Fatalf("parents %v: want get->vote->phase, late read at the root", parents)
	}
	traced := 0
	for serial := uint64(1); serial <= 1000; serial++ {
		if tr.sampled(serial) {
			traced++
		}
	}
	if traced < 450 || traced > 550 {
		t.Fatalf("%d of 1000 serials traced, want about half", traced)
	}
	var none *tracer
	if none.start(spanVote, 0, 2) != 0 || none.sampled(2) {
		t.Fatal("a nil tracer records nothing")
	}
}

func TestChoicesFollowTheSeed(t *testing.T) {
	a, b := choices(7, 0, 500, 4), choices(7, 0, 500, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different choices")
	}
	if reflect.DeepEqual(a, choices(8, 0, 500, 4)) {
		t.Fatal("different seeds, same choices")
	}
	seen := map[choice]bool{}
	for _, c := range a {
		if !c.part.Valid() || c.opt < 0 || c.opt >= len(electionOptions) || c.node < 0 || c.node >= 4 {
			t.Fatalf("choice out of range: %+v", c)
		}
		seen[c] = true
	}
	if len(seen) != 2*len(electionOptions)*4 {
		t.Fatalf("%d distinct choices in 500 draws, want every combination", len(seen))
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestReportsEveryDeclaredMetric checks the metric names and units the
// benchmark prints against its declaration in BENCHMARK.json.
func TestReportsEveryDeclaredMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	r := &runner{log: io.Discard, latency: &latencies{}}
	e2e, layers := metricSet{}, metricSet{}
	r.endToEnd(e2e)
	r.perLayer(layers, nil)
	for _, c := range []struct {
		got  metricSet
		decl []struct{ Name, Unit string }
	}{{e2e, decl.EndToEnd}, {layers, decl.PerLayer}} {
		if len(c.got) != len(c.decl) {
			t.Errorf("prints %d metrics, declares %d", len(c.got), len(c.decl))
		}
		for _, d := range c.decl {
			if m, ok := c.got[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("metric %s: printed %+v (present %t), declared unit %s", d.Name, m, ok, d.Unit)
			}
		}
	}
	for _, w := range decl.Work {
		if _, err := newShape(w.Name, 20); err != nil {
			t.Errorf("declared workload %s: %v", w.Name, err)
		}
	}
}

// TestShortRun runs the smallest workload end to end for one second and
// checks that it verified every output.
func TestShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an election")
	}
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = os.Chdir(wd) }()
	var out lastLine
	if code := run([]string{"--workload", "vote-lan4", "--seed", "3", "--seconds", "1", "--trace", "1"}, &out); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	var res struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   metricSet
	}
	if err := json.Unmarshal(out.last, &res); err != nil {
		t.Fatalf("last line %q: %v", out.last, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 100 {
		t.Fatalf("correct %t, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
	if v := res.Metrics["self.vc.SubmitVote_ms"].Value; v <= 0 || math.IsNaN(v) {
		t.Fatalf("traced run reports vote self time %v", v)
	}
}

// lastLine keeps the last line written to it.
type lastLine struct {
	buf, last []byte
}

func (l *lastLine) Write(p []byte) (int, error) {
	for _, c := range p {
		if c == '\n' {
			l.last, l.buf = l.buf, nil
			continue
		}
		l.buf = append(l.buf, c)
	}
	return len(p), nil
}
