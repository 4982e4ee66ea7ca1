package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func recvWithTimeout(t *testing.T, ep Endpoint, d time.Duration) Envelope {
	t.Helper()
	select {
	case env, ok := <-ep.Recv():
		if !ok {
			t.Fatal("endpoint closed")
		}
		return env
	case <-time.After(d):
		t.Fatal("timed out waiting for message")
	}
	return Envelope{}
}

func TestMemnetBasicDelivery(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	a := net.Endpoint(1)
	b := net.Endpoint(2)
	if err := a.Send(2, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	env := recvWithTimeout(t, b, time.Second)
	if env.From != 1 || env.To != 2 || string(env.Payload) != "hello" {
		t.Fatalf("got %+v", env)
	}
}

func TestMemnetUnknownPeer(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	a := net.Endpoint(1)
	if err := a.Send(99, []byte("x")); err == nil {
		t.Fatal("send to unknown peer must fail")
	}
}

func TestMemnetLatency(t *testing.T) {
	net := NewMemnet(LinkProfile{Latency: 30 * time.Millisecond})
	defer func() { _ = net.Close() }()
	a := net.Endpoint(1)
	b := net.Endpoint(2)
	start := time.Now()
	if err := a.Send(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	recvWithTimeout(t, b, time.Second)
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("delivered after %v, want >= ~30ms", elapsed)
	}
}

func TestMemnetDrop(t *testing.T) {
	net := NewMemnet(LinkProfile{DropRate: 1.0})
	defer func() { _ = net.Close() }()
	a := net.Endpoint(1)
	b := net.Endpoint(2)
	if err := a.Send(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Recv():
		t.Fatal("message should have been dropped")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestMemnetDuplicate(t *testing.T) {
	net := NewMemnet(LinkProfile{DupRate: 1.0})
	defer func() { _ = net.Close() }()
	a := net.Endpoint(1)
	b := net.Endpoint(2)
	if err := a.Send(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	recvWithTimeout(t, b, time.Second)
	recvWithTimeout(t, b, time.Second) // the duplicate
}

func TestMemnetPartition(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	a := net.Endpoint(1)
	b := net.Endpoint(2)
	net.Partition(1, 2, true)
	if err := a.Send(2, []byte("x")); err != nil {
		t.Fatal(err) // partition is silent, like a lossy link
	}
	select {
	case <-b.Recv():
		t.Fatal("partitioned message delivered")
	case <-time.After(50 * time.Millisecond):
	}
	net.Partition(1, 2, false)
	if err := a.Send(2, []byte("y")); err != nil {
		t.Fatal(err)
	}
	env := recvWithTimeout(t, b, time.Second)
	if string(env.Payload) != "y" {
		t.Fatalf("got %q", env.Payload)
	}
}

func TestMemnetIsolate(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	a := net.Endpoint(1)
	b := net.Endpoint(2)
	c := net.Endpoint(3)
	net.Isolate(2, true)
	_ = a.Send(2, []byte("x"))
	_ = b.Send(3, []byte("y"))
	select {
	case <-b.Recv():
		t.Fatal("isolated node received")
	case <-c.Recv():
		t.Fatal("isolated node sent")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestMemnetIsolationAndPartitionCompose(t *testing.T) {
	// Crash (Isolate) and partition are independent levers: healing a
	// partition must not reconnect a crashed node, and restoring a crashed
	// node must not heal a partition it was part of. Scenario schedules
	// overlap the two freely and rely on this.
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	a := net.Endpoint(1)
	b := net.Endpoint(2)

	net.Isolate(2, true)
	net.Partition(1, 2, true)
	net.Partition(1, 2, false) // heal while node 2 is still crashed
	_ = a.Send(2, []byte("x"))
	select {
	case <-b.Recv():
		t.Fatal("partition heal reconnected a crashed node")
	case <-time.After(50 * time.Millisecond):
	}

	net.Partition(1, 2, true)
	net.Isolate(2, false) // restore the node while the partition is live
	_ = a.Send(2, []byte("y"))
	select {
	case <-b.Recv():
		t.Fatal("restoring a crashed node healed a live partition")
	case <-time.After(50 * time.Millisecond):
	}

	net.Partition(1, 2, false)
	if err := a.Send(2, []byte("z")); err != nil {
		t.Fatal(err)
	}
	if env := recvWithTimeout(t, b, time.Second); string(env.Payload) != "z" {
		t.Fatalf("got %q after full heal", env.Payload)
	}
}

func TestMemnetPerLinkProfile(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	net.SetLink(1, 2, LinkProfile{DropRate: 1.0})
	a := net.Endpoint(1)
	b := net.Endpoint(2)
	_ = a.Send(2, []byte("dropped"))
	if err := b.Send(1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	env := recvWithTimeout(t, a, time.Second)
	if string(env.Payload) != "ok" {
		t.Fatalf("got %q", env.Payload)
	}
}

func TestMemnetManyMessagesOrderedDelivery(t *testing.T) {
	// With zero latency/jitter, messages on one link stay ordered.
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	a := net.Endpoint(1)
	b := net.Endpoint(2)
	const total = 1000
	for i := 0; i < total; i++ {
		if err := a.Send(2, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		env := recvWithTimeout(t, b, time.Second)
		got := int(env.Payload[0]) | int(env.Payload[1])<<8
		if got != i {
			t.Fatalf("message %d arrived as %d", i, got)
		}
	}
}

func TestMemnetConcurrentSenders(t *testing.T) {
	net := NewMemnet(LinkProfile{Latency: time.Millisecond, Jitter: time.Millisecond})
	defer func() { _ = net.Close() }()
	const senders = 8
	const per = 100
	dst := net.Endpoint(0)
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		ep := net.Endpoint(NodeID(s))
		wg.Add(1)
		go func(ep Endpoint) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := ep.Send(0, []byte("m")); err != nil {
					t.Error(err)
					return
				}
			}
		}(ep)
	}
	wg.Wait()
	for i := 0; i < senders*per; i++ {
		recvWithTimeout(t, dst, 2*time.Second)
	}
	msgs, bytes := net.Stats()
	if msgs != senders*per || bytes != senders*per {
		t.Fatalf("stats: %d msgs %d bytes", msgs, bytes)
	}
}

func TestMemnetClosedNetworkRejectsSend(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	a := net.Endpoint(1)
	net.Endpoint(2)
	_ = net.Close()
	if err := a.Send(2, []byte("x")); err == nil {
		t.Fatal("send on closed network must fail")
	}
}

func TestMulticast(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	eps := make([]Endpoint, 4)
	ids := make([]NodeID, 4)
	for i := range eps {
		eps[i] = net.Endpoint(NodeID(i))
		ids[i] = NodeID(i)
	}
	if err := Multicast(eps[0], ids, []byte("all")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		env := recvWithTimeout(t, eps[i], time.Second)
		if string(env.Payload) != "all" {
			t.Fatalf("node %d got %q", i, env.Payload)
		}
	}
	// Sender must not receive its own multicast.
	select {
	case <-eps[0].Recv():
		t.Fatal("sender received own multicast")
	case <-time.After(20 * time.Millisecond):
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	a, err := NewTCPNode(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := NewTCPNode(1, "127.0.0.1:0", map[NodeID]string{0: a.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	a.peers = map[NodeID]string{1: b.Addr()}

	if err := b.Send(0, []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	env := recvWithTimeout(t, a, 2*time.Second)
	if string(env.Payload) != "over tcp" || env.From != 1 {
		t.Fatalf("got %+v", env)
	}
	// And the reverse direction.
	if err := a.Send(1, []byte("reply")); err != nil {
		t.Fatal(err)
	}
	env = recvWithTimeout(t, b, 2*time.Second)
	if string(env.Payload) != "reply" {
		t.Fatalf("got %+v", env)
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, err := NewTCPNode(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	if err := a.Send(9, []byte("x")); err == nil {
		t.Fatal("unknown peer must fail")
	}
}

func TestTCPManyMessages(t *testing.T) {
	a, err := NewTCPNode(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := NewTCPNode(1, "127.0.0.1:0", map[NodeID]string{0: a.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	const total = 500
	for i := 0; i < total; i++ {
		if err := b.Send(0, []byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		env := recvWithTimeout(t, a, 2*time.Second)
		if string(env.Payload) != fmt.Sprintf("msg-%d", i) {
			t.Fatalf("message %d: got %q", i, env.Payload)
		}
	}
}

func BenchmarkMemnetSendRecv(b *testing.B) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	src := net.Endpoint(0)
	dst := net.Endpoint(1)
	payload := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send(1, payload); err != nil {
			b.Fatal(err)
		}
		<-dst.Recv()
	}
}
