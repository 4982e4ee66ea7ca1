package transport

import (
	"testing"
	"time"

	"ddemos/internal/wire"
)

// testFrame builds a valid wire frame (the Batcher's payload contract).
func testFrame(i int) []byte {
	return wire.Encode(&wire.Endorse{Serial: uint64(i), Code: []byte{byte(i), byte(i >> 8)}}) //nolint:gosec // test data
}

func TestBatcherCoalescesWithinWindow(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	a := NewBatcher(net.Endpoint(1), BatcherOptions{Window: 20 * time.Millisecond})
	b := NewBatcher(net.Endpoint(2), BatcherOptions{Window: 20 * time.Millisecond})
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()

	const total = 10
	for i := 0; i < total; i++ {
		if err := a.Send(2, testFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		env := recvWithTimeout(t, b, time.Second)
		m, err := wire.Decode(env.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.(*wire.Endorse).Serial; got != uint64(i) {
			t.Fatalf("message %d arrived as %d", i, got)
		}
		if env.From != 1 || env.To != 2 {
			t.Fatalf("bad route %+v", env)
		}
	}
	// All ten messages must have crossed the network as one frame.
	if msgs, _ := net.Stats(); msgs != 1 {
		t.Fatalf("network saw %d frames, want 1", msgs)
	}
	// The timer flush counts its batch after the inner Send returns, which
	// can be after delivery. Flush waits for the link's in-flight flush.
	a.Flush()
	if batches, msgs := a.Stats(); batches != 1 || msgs != total {
		t.Fatalf("batcher stats: %d batches %d msgs", batches, msgs)
	}
}

func TestBatcherFlushesOnMaxMessages(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	// A window far too long to fire during the test: only the size
	// threshold can flush.
	a := NewBatcher(net.Endpoint(1), BatcherOptions{Window: time.Hour, MaxMessages: 4})
	b := NewBatcher(net.Endpoint(2), BatcherOptions{Window: time.Hour})
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()

	for i := 0; i < 4; i++ {
		if err := a.Send(2, testFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		recvWithTimeout(t, b, time.Second)
	}
	if msgs, _ := net.Stats(); msgs != 1 {
		t.Fatalf("network saw %d frames, want 1", msgs)
	}
}

func TestBatcherFlushesOnMaxBytes(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	a := NewBatcher(net.Endpoint(1), BatcherOptions{Window: time.Hour, MaxBytes: 16})
	b := NewBatcher(net.Endpoint(2), BatcherOptions{Window: time.Hour})
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()

	if err := a.Send(2, testFrame(1)); err != nil { // 15 bytes: below threshold
		t.Fatal(err)
	}
	if err := a.Send(2, testFrame(2)); err != nil { // crosses MaxBytes
		t.Fatal(err)
	}
	recvWithTimeout(t, b, time.Second)
	recvWithTimeout(t, b, time.Second)
}

func TestBatcherSingletonPassesThroughUnwrapped(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	a := NewBatcher(net.Endpoint(1), BatcherOptions{Window: time.Millisecond})
	raw := net.Endpoint(2) // receiver without a Batcher
	defer func() { _ = a.Close() }()

	frame := testFrame(7)
	if err := a.Send(2, frame); err != nil {
		t.Fatal(err)
	}
	env := recvWithTimeout(t, raw, time.Second)
	if string(env.Payload) != string(frame) {
		t.Fatalf("singleton batch rewrote the frame: %x", env.Payload)
	}
}

func TestBatcherPerDestinationQueues(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	a := NewBatcher(net.Endpoint(1), BatcherOptions{Window: 5 * time.Millisecond})
	b := NewBatcher(net.Endpoint(2), BatcherOptions{Window: 5 * time.Millisecond})
	c := NewBatcher(net.Endpoint(3), BatcherOptions{Window: 5 * time.Millisecond})
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()
	defer func() { _ = c.Close() }()

	for i := 0; i < 6; i++ {
		dst := NodeID(2 + NodeID(i%2))
		if err := a.Send(dst, testFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		recvWithTimeout(t, b, time.Second)
		recvWithTimeout(t, c, time.Second)
	}
	if msgs, _ := net.Stats(); msgs != 2 {
		t.Fatalf("network saw %d frames, want 2 (one per destination)", msgs)
	}
}

func TestBatcherCloseFlushesPending(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	a := NewBatcher(net.Endpoint(1), BatcherOptions{Window: time.Hour})
	b := net.Endpoint(2)
	if err := a.Send(2, testFrame(1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	recvWithTimeout(t, b, time.Second)
	if err := a.Send(2, testFrame(2)); err != ErrClosed {
		t.Fatalf("send after close: %v", err)
	}
}

func TestBatcherDropsGarbageBatches(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	raw := net.Endpoint(1)
	b := NewBatcher(net.Endpoint(2), BatcherOptions{Window: time.Millisecond})
	defer func() { _ = b.Close() }()

	garbage := []byte{byte(wire.KindBatch), 0xff, 0xff} // bad version/truncated
	if err := raw.Send(2, garbage); err != nil {
		t.Fatal(err)
	}
	if err := raw.Send(2, testFrame(3)); err != nil {
		t.Fatal(err)
	}
	env := recvWithTimeout(t, b, time.Second)
	m, err := wire.Decode(env.Payload)
	if err != nil || m.(*wire.Endorse).Serial != 3 {
		t.Fatalf("got %v %v", m, err)
	}
	if b.BadBatches() != 1 {
		t.Fatalf("bad batches = %d, want 1", b.BadBatches())
	}
}

func TestBatcherOverSignedOneSignaturePerBatch(t *testing.T) {
	// Stack order endpoint → Signed → Batcher: the batch is tagged once and
	// checked once, and unbatching yields the individual messages.
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	keys, pubs := makeKeys(t, 2)
	window := 20 * time.Millisecond
	a := NewBatcher(newSigned(t, net.Endpoint(0), keys[0].Private, pubs), BatcherOptions{Window: window})
	b := NewBatcher(newSigned(t, net.Endpoint(1), keys[1].Private, pubs), BatcherOptions{Window: window})
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()

	const total = 8
	for i := 0; i < total; i++ {
		if err := a.Send(1, testFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		env := recvWithTimeout(t, b, time.Second)
		m, err := wire.Decode(env.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.(*wire.Endorse).Serial; got != uint64(i) {
			t.Fatalf("message %d arrived as %d", i, got)
		}
	}
	// One network frame: one MAC tag + one batch envelope.
	msgs, bytes := net.Stats()
	if msgs != 1 {
		t.Fatalf("network saw %d frames, want 1", msgs)
	}
	var inner int64
	for i := 0; i < total; i++ {
		inner += int64(len(testFrame(i)))
	}
	if overhead := bytes - inner; overhead > TagSize+6*int64(total)+16 {
		t.Fatalf("batch overhead %d bytes for %d messages", overhead, total)
	}
}

func TestBatcherOverTCP(t *testing.T) {
	srv, err := NewTCPNode(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewTCPNode(1, "127.0.0.1:0", map[NodeID]string{0: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	a := NewBatcher(cli, BatcherOptions{Window: 10 * time.Millisecond})
	b := NewBatcher(srv, BatcherOptions{Window: 10 * time.Millisecond})
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()

	const total = 20
	for i := 0; i < total; i++ {
		if err := a.Send(0, testFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		env := recvWithTimeout(t, b, 2*time.Second)
		m, err := wire.Decode(env.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.(*wire.Endorse).Serial; got != uint64(i) {
			t.Fatalf("message %d arrived as %d", i, got)
		}
	}
}

func TestBatcherOversizedFramePassesThrough(t *testing.T) {
	// Frames at or above wire.MaxBatchableFrame cannot travel inside a
	// Batch envelope (the decoder caps inner frames): they must flush the
	// queue (FIFO) and pass through unwrapped — the whole-election ANNOUNCE
	// case.
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	a := NewBatcher(net.Endpoint(1), BatcherOptions{Window: time.Hour})
	b := NewBatcher(net.Endpoint(2), BatcherOptions{Window: time.Hour})
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()

	small := testFrame(1)
	big := wire.Encode(&wire.Announce{Sender: 1, Entries: []wire.AnnounceEntry{{
		Serial: 1, Code: make([]byte, wire.MaxBatchableFrame),
	}}})
	if len(big) < wire.MaxBatchableFrame {
		t.Fatalf("test frame too small: %d", len(big))
	}
	if err := a.Send(2, small); err != nil { // queued behind an hour-long window
		t.Fatal(err)
	}
	if err := a.Send(2, big); err != nil { // must flush `small` first, then pass through
		t.Fatal(err)
	}
	env := recvWithTimeout(t, b, time.Second)
	if string(env.Payload) != string(small) {
		t.Fatalf("queued frame not flushed first (got %d bytes)", len(env.Payload))
	}
	env = recvWithTimeout(t, b, time.Second)
	if len(env.Payload) != len(big) {
		t.Fatalf("oversized frame mangled: got %d want %d bytes", len(env.Payload), len(big))
	}
	if b.BadBatches() != 0 {
		t.Fatalf("bad batches = %d", b.BadBatches())
	}
}

func TestBatcherFaultInjectionWholeBatches(t *testing.T) {
	// Memnet faults operate on whole frames, so with batching a drop or a
	// duplication hits an entire batch. Every delivered message must still
	// arrive intact and correctly attributed.
	net := NewMemnet(LinkProfile{DupRate: 0.3, Jitter: 500 * time.Microsecond})
	defer func() { _ = net.Close() }()
	a := NewBatcher(net.Endpoint(1), BatcherOptions{Window: time.Millisecond, MaxMessages: 5})
	b := NewBatcher(net.Endpoint(2), BatcherOptions{Window: time.Millisecond, MaxMessages: 5})
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()

	const total = 50
	for i := 0; i < total; i++ {
		if err := a.Send(2, testFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[uint64]int)
	deadline := time.After(5 * time.Second)
	for len(seen) < total {
		select {
		case env := <-b.Recv():
			m, err := wire.Decode(env.Payload)
			if err != nil {
				t.Fatal(err)
			}
			e := m.(*wire.Endorse)
			if e.Code[0] != byte(e.Serial) {
				t.Fatalf("payload corrupted: %+v", e)
			}
			seen[e.Serial]++
		case <-deadline:
			t.Fatalf("only %d/%d distinct messages delivered", len(seen), total)
		}
	}
	// With DupRate 0.3 some batch must have been duplicated wholesale;
	// duplicated batches duplicate every inner message.
	dups := 0
	for _, c := range seen {
		if c > 1 {
			dups++
		}
	}
	if dups == 0 {
		t.Log("no duplicated batch observed (possible but unlikely)")
	}
}

func BenchmarkBatcherSend(b *testing.B) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	src := NewBatcher(net.Endpoint(0), BatcherOptions{Window: 100 * time.Microsecond})
	dst := NewBatcher(net.Endpoint(1), BatcherOptions{Window: 100 * time.Microsecond})
	defer func() { _ = src.Close() }()
	defer func() { _ = dst.Close() }()
	frame := testFrame(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range dst.Recv() { //nolint:revive // drain
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send(1, frame); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = src.Close()
	_ = dst.Close()
	<-done
}
