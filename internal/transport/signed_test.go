package transport

import (
	"bytes"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"math/rand/v2"
	"testing"
	"time"

	"ddemos/internal/sig"
)

func makeKeys(t testing.TB, n int) ([]sig.KeyPair, map[NodeID]ed25519.PublicKey) {
	t.Helper()
	keys := make([]sig.KeyPair, n)
	pubs := make(map[NodeID]ed25519.PublicKey, n)
	for i := range keys {
		kp, err := sig.NewKeyPair(nil)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = kp
		pubs[NodeID(i)] = kp.Public
	}
	return keys, pubs
}

func newSigned(t testing.TB, inner Endpoint, priv ed25519.PrivateKey, pubs map[NodeID]ed25519.PublicKey) *Signed {
	t.Helper()
	s, err := NewSigned(inner, priv, pubs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// taggedFrame builds the frame Signed would send on route from->to under
// key k.
func taggedFrame(k []byte, from, to NodeID, payload []byte) []byte {
	r := route(from, to)
	return append(tag(hmac.New(sha256.New, k), r[:], payload, nil), payload...)
}

// expectDrops waits until s has dropped want frames and checks none was
// delivered.
func expectDrops(t testing.TB, s *Signed, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for s.Dropped() < want && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case env := <-s.Recv():
		t.Fatalf("unauthenticated frame delivered: %+v", env)
	default:
	}
	if got := s.Dropped(); got != want {
		t.Fatalf("dropped = %d, want %d", got, want)
	}
}

func TestSignedEndpointRoundTrip(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	keys, pubs := makeKeys(t, 2)
	a := newSigned(t, net.Endpoint(0), keys[0].Private, pubs)
	b := newSigned(t, net.Endpoint(1), keys[1].Private, pubs)
	if err := a.Send(1, []byte("signed")); err != nil {
		t.Fatal(err)
	}
	env := recvWithTimeout(t, b, time.Second)
	if string(env.Payload) != "signed" || env.From != 0 {
		t.Fatalf("got %+v", env)
	}
	// And back: the pairwise key serves both directions.
	if err := b.Send(0, []byte("reply")); err != nil {
		t.Fatal(err)
	}
	if env := recvWithTimeout(t, a, time.Second); string(env.Payload) != "reply" || env.From != 1 {
		t.Fatalf("got %+v", env)
	}
	if a.Dropped()+b.Dropped() != 0 {
		t.Fatal("no drops expected")
	}
}

func TestSignedEndpointRejectsForgery(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	keys, pubs := makeKeys(t, 3)
	b := newSigned(t, net.Endpoint(1), keys[1].Private, pubs)
	// Raw endpoint 0 sends junk without a tag.
	raw := net.Endpoint(0)
	if err := raw.Send(1, bytes.Repeat([]byte("unsigned junk "), 4)); err != nil {
		t.Fatal(err)
	}
	// Node 2 tags with node 0's key: its frames claim route 2->1 but carry
	// k_01, not k_21.
	evil := newSigned(t, net.Endpoint(2), keys[0].Private, pubs)
	if err := evil.Send(1, []byte("forged")); err != nil {
		t.Fatal(err)
	}
	expectDrops(t, b, 2)
}

func TestSignedEndpointRejectsWrongKey(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	keys, pubs := makeKeys(t, 2)
	b := newSigned(t, net.Endpoint(1), keys[1].Private, pubs)
	wrong := bytes.Repeat([]byte{0x5a}, sha256.Size)
	if err := net.Endpoint(0).Send(1, taggedFrame(wrong, 0, 1, []byte("hello"))); err != nil {
		t.Fatal(err)
	}
	// The right key over a modified payload fails too.
	k, err := channelKey(keys[0].Private, keys[1].Public)
	if err != nil {
		t.Fatal(err)
	}
	frame := taggedFrame(k, 0, 1, []byte("hello"))
	frame[len(frame)-1] ^= 1
	if err := net.Endpoint(0).Send(1, frame); err != nil {
		t.Fatal(err)
	}
	expectDrops(t, b, 2)
}

func TestSignedEndpointCannotReplayAcrossRoutes(t *testing.T) {
	// A tag for route 0->1 must not verify on any other route: not when
	// forwarded to node 2, and not when reflected back to node 0 as if from
	// node 1 (k_01 == k_10, so only the route tells the directions apart).
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	keys, pubs := makeKeys(t, 3)
	a := newSigned(t, net.Endpoint(0), keys[0].Private, pubs)
	b := newSigned(t, net.Endpoint(1), keys[1].Private, pubs)
	c := newSigned(t, net.Endpoint(2), keys[2].Private, pubs)

	k01, err := channelKey(keys[0].Private, keys[1].Public)
	if err != nil {
		t.Fatal(err)
	}
	frame := taggedFrame(k01, 0, 1, []byte("for b only"))
	// The genuine frame is accepted on its own route.
	if err := net.Endpoint(0).Send(1, frame); err != nil {
		t.Fatal(err)
	}
	if env := recvWithTimeout(t, b, time.Second); string(env.Payload) != "for b only" {
		t.Fatalf("got %+v", env)
	}
	if err := net.Endpoint(0).Send(2, frame); err != nil {
		t.Fatal(err)
	}
	if err := net.Endpoint(1).Send(0, frame); err != nil {
		t.Fatal(err)
	}
	expectDrops(t, c, 1)
	expectDrops(t, a, 1)
}

func TestSignedEndpointDropsTruncatedFrames(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	keys, pubs := makeKeys(t, 2)
	b := newSigned(t, net.Endpoint(1), keys[1].Private, pubs)
	k, err := channelKey(keys[0].Private, keys[1].Public)
	if err != nil {
		t.Fatal(err)
	}
	frame := taggedFrame(k, 0, 1, nil) // a valid tag over the empty payload
	raw := net.Endpoint(0)
	for n := 0; n < TagSize; n++ {
		if err := raw.Send(1, frame[:n]); err != nil {
			t.Fatal(err)
		}
	}
	expectDrops(t, b, TagSize)
	// The whole tag is the shortest frame that authenticates.
	if err := raw.Send(1, frame); err != nil {
		t.Fatal(err)
	}
	if env := recvWithTimeout(t, b, time.Second); len(env.Payload) != 0 {
		t.Fatalf("got %+v", env)
	}
}

func TestSignedOverTCPDropsImpersonation(t *testing.T) {
	// TCPNode takes the sender id from the frame itself, so any peer can
	// claim to be any node. The MAC layer above it must drop such frames.
	keys, pubs := makeKeys(t, 3)
	victimTCP, err := NewTCPNode(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := newSigned(t, victimTCP, keys[1].Private, pubs)
	defer func() { _ = victim.Close() }()
	dial := map[NodeID]string{1: victimTCP.Addr()}
	honestTCP, err := NewTCPNode(0, "127.0.0.1:0", dial)
	if err != nil {
		t.Fatal(err)
	}
	honest := newSigned(t, honestTCP, keys[0].Private, pubs)
	defer func() { _ = honest.Close() }()
	// Node 2 holds its own key but announces itself as node 0.
	evilTCP, err := NewTCPNode(0, "127.0.0.1:0", dial)
	if err != nil {
		t.Fatal(err)
	}
	evil := newSigned(t, evilTCP, keys[2].Private, pubs)
	defer func() { _ = evil.Close() }()

	if err := evil.Send(1, []byte("i am node 0")); err != nil {
		t.Fatal(err)
	}
	expectDrops(t, victim, 1)
	if err := honest.Send(1, []byte("node 0 here")); err != nil {
		t.Fatal(err)
	}
	if env := recvWithTimeout(t, victim, 2*time.Second); string(env.Payload) != "node 0 here" || env.From != 0 {
		t.Fatalf("got %+v", env)
	}
	if victim.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", victim.Dropped())
	}
}

func TestChannelKeyPairwise(t *testing.T) {
	// Property: over random key triples, k_ij == k_ji and k_ij != k_ik.
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 50; trial++ {
		var kp [3]sig.KeyPair
		for i := range kp {
			var seed [ed25519.SeedSize]byte
			for j := range seed {
				seed[j] = byte(rng.Uint32())
			}
			priv := ed25519.NewKeyFromSeed(seed[:])
			kp[i] = sig.KeyPair{Public: priv.Public().(ed25519.PublicKey), Private: priv}
		}
		kij, err := channelKey(kp[0].Private, kp[1].Public)
		if err != nil {
			t.Fatal(err)
		}
		kji, err := channelKey(kp[1].Private, kp[0].Public)
		if err != nil {
			t.Fatal(err)
		}
		kik, err := channelKey(kp[0].Private, kp[2].Public)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(kij, kji) {
			t.Fatalf("trial %d: k_ij != k_ji", trial)
		}
		if bytes.Equal(kij, kik) {
			t.Fatalf("trial %d: k_ij == k_ik", trial)
		}
		if len(kij) != sha256.Size {
			t.Fatalf("key is %d bytes", len(kij))
		}
	}
}

// encodeY returns the Ed25519 encoding of y (little-endian), with the sign
// bit of x set when neg.
func encodeY(y []byte, neg bool) ed25519.PublicKey {
	out := make([]byte, 32)
	for i, b := range y {
		out[len(y)-1-i] = b
	}
	if neg {
		out[31] |= 0x80
	}
	return out
}

func TestNewSignedRejectsBadPeerKeys(t *testing.T) {
	// p = 2^255 - 19, big-endian.
	p := append([]byte{0x7f}, bytes.Repeat([]byte{0xff}, 30)...)
	p = append(p, 0xed)
	pPlus1 := append(append([]byte{}, p[:31]...), 0xee)
	pMinus1 := append(append([]byte{}, p[:31]...), 0xec)
	one := append(make([]byte, 31), 0x01)
	keys, _ := makeKeys(t, 1)
	cases := map[string]ed25519.PublicKey{
		"empty":              nil,
		"short":              keys[0].Public[:31],
		"long":               append(append([]byte{}, keys[0].Public...), 0),
		"y=p":                encodeY(p, false),
		"y=p+1":              encodeY(pPlus1, false),
		"y=2^255-1":          encodeY(append([]byte{0x7f}, bytes.Repeat([]byte{0xff}, 31)...), true),
		"identity y=1":       encodeY(one, false),
		"identity y=1 (neg)": encodeY(one, true),
		"low order y=-1":     encodeY(pMinus1, false),
		"low order y=0":      encodeY(make([]byte, 32), false),
	}
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	for name, bad := range cases {
		pubs := map[NodeID]ed25519.PublicKey{0: keys[0].Public, 1: bad}
		if _, err := NewSigned(net.Endpoint(0), keys[0].Private, pubs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := NewSigned(net.Endpoint(0), keys[0].Private[:10], map[NodeID]ed25519.PublicKey{1: keys[0].Public}); err == nil {
		t.Error("short private key accepted")
	}
}

func TestMontgomeryUMatchesKnownPoint(t *testing.T) {
	// The Ed25519 base point (y = 4/5, encoded 0x58 0x66...) maps to the
	// X25519 base point u = 9.
	b := append(ed25519.PublicKey{0x58}, bytes.Repeat([]byte{0x66}, 31)...)
	u, err := montgomeryU(b)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte{9}, make([]byte, 31)...)
	if !bytes.Equal(u, want) {
		t.Fatalf("u(B) = %x, want %x", u, want)
	}
}

func TestSignedPerformsNoEd25519(t *testing.T) {
	// Channel keys come from X25519 at construction and frames carry HMAC
	// tags: the transport stack must not cost a single Ed25519 operation.
	signs, verifies := sig.Ops()
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	keys, pubs := makeKeys(t, 3)
	a := NewBatcher(newSigned(t, net.Endpoint(0), keys[0].Private, pubs), BatcherOptions{Window: time.Millisecond})
	b := NewBatcher(newSigned(t, net.Endpoint(1), keys[1].Private, pubs), BatcherOptions{Window: time.Millisecond})
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()
	for i := 0; i < 20; i++ {
		if err := a.Send(1, testFrame(i)); err != nil {
			t.Fatal(err)
		}
		if err := b.Send(0, testFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		recvWithTimeout(t, a, time.Second)
		recvWithTimeout(t, b, time.Second)
	}
	s2, v2 := sig.Ops()
	if s2 != signs || v2 != verifies {
		t.Fatalf("transport made %d Ed25519 signs and %d verifies", s2-signs, v2-verifies)
	}
}

// discard is an Endpoint that drops every frame it is asked to send.
type discard struct{ id NodeID }

func (d discard) ID() NodeID                { return d.id }
func (d discard) Send(NodeID, []byte) error { return nil }
func (d discard) Recv() <-chan Envelope     { return nil }
func (d discard) Close() error              { return nil }

func TestSignedSendAllocatesOnlyTheFrame(t *testing.T) {
	// The per-peer HMAC state is keyed once; tagging a frame must cost no
	// allocation beyond the outgoing frame itself.
	keys, pubs := makeKeys(t, 2)
	s := newSigned(t, discard{id: 0}, keys[0].Private, pubs)
	payload := make([]byte, 512)
	if n := testing.AllocsPerRun(200, func() { _ = s.Send(1, payload) }); n > 1 {
		t.Fatalf("%.1f allocations per Send, want 1", n)
	}
}

// FuzzAuthenticatedRecv: arbitrary bytes injected by a raw endpoint are
// never delivered by the MAC layer.
func FuzzAuthenticatedRecv(f *testing.F) {
	keys, pubs := makeKeys(f, 2)
	k, err := channelKey(keys[0].Private, keys[1].Public)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add([]byte("short"))
	f.Add(bytes.Repeat([]byte{0}, TagSize))
	f.Add(bytes.Repeat([]byte{0xff}, TagSize+16))
	// Near misses: a valid frame with one bit flipped, and a valid tag on
	// the reverse route.
	valid := taggedFrame(k, 0, 1, []byte("payload"))
	valid[3] ^= 0x10
	f.Add(valid)
	f.Add(taggedFrame(k, 1, 0, []byte("payload")))

	net := NewMemnet(LinkProfile{})
	f.Cleanup(func() { _ = net.Close() })
	raw := net.Endpoint(0)
	b, err := NewSigned(net.Endpoint(1), keys[1].Private, pubs)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		want := b.Dropped() + 1
		if err := raw.Send(1, frame); err != nil {
			t.Fatal(err)
		}
		expectDrops(t, b, want)
	})
}
