package transport

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/sha512"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math/big"
	"sync"
	"sync/atomic"
)

// Signed wraps an Endpoint with pairwise HMAC-SHA256 channel
// authentication, the paper's authenticated point-to-point channels. Each
// pair of nodes shares a key derived once, at construction, from the
// EA-issued Ed25519 node keys (X25519 over the birational map of the
// Edwards keys, see channelKey). Every outgoing payload is prefixed with a
// TagSize-byte tag over (from, to, payload); incoming messages with a
// missing or invalid tag are counted and dropped, which is how the
// channels neutralize network-level spoofing. A tag convinces only the
// receiver, who could have computed it too, so it is not evidence for a
// third party: every signature the protocol keeps as evidence (UCERT
// endorsements, receipt shares, vote sets) stays Ed25519 above this layer.
// Stacked under a Batcher, the payload is a whole coalesced batch, so a
// flush costs one tag no matter how many protocol messages it carries.
type Signed struct {
	inner   Endpoint
	peers   map[NodeID]*channel
	out     chan Envelope
	dropped atomic.Int64
}

// channel is the MAC state shared with one peer. Each HMAC keeps its
// inner/outer pad state precomputed, so a frame pays no key schedule and
// no allocation. Concurrent senders share send under mu; recv is used only
// by the pump goroutine.
type channel struct {
	mu        sync.Mutex
	send      hash.Hash
	recv      hash.Hash
	sendRoute [4]byte // route(self, peer)
	recvRoute [4]byte // route(peer, self)
}

var _ Endpoint = (*Signed)(nil)

// TagSize is the per-frame overhead of Signed: one HMAC-SHA256 tag.
const TagSize = sha256.Size

// channelLabel separates channel keys from any other use of the shared
// X25519 secret. v3: pairwise HMAC tags replaced v2's per-frame Ed25519
// signatures.
const channelLabel = "ddemos/v3/channel"

// NewSigned wraps inner. pubs must contain the public key of every peer
// this endpoint will send to or receive from; priv is this node's own
// Ed25519 key. It fails if any key cannot yield a channel key.
func NewSigned(inner Endpoint, priv ed25519.PrivateKey, pubs map[NodeID]ed25519.PublicKey) (*Signed, error) {
	s := &Signed{
		inner: inner,
		peers: make(map[NodeID]*channel, len(pubs)),
		out:   make(chan Envelope, 256),
	}
	self := inner.ID()
	for id, pub := range pubs {
		k, err := channelKey(priv, pub)
		if err != nil {
			return nil, fmt.Errorf("transport: channel key %d-%d: %w", self, id, err)
		}
		ch := &channel{
			send:      hmac.New(sha256.New, k),
			recv:      hmac.New(sha256.New, k),
			sendRoute: route(self, id),
			recvRoute: route(id, self),
		}
		// The first Reset saves the keyed pad states; later ones restore
		// them instead of rehashing the key.
		ch.send.Reset()
		ch.recv.Reset()
		s.peers[id] = ch
	}
	go s.pump()
	return s, nil
}

// ID implements Endpoint.
func (s *Signed) ID() NodeID { return s.inner.ID() }

// Send implements Endpoint: prepends the tag to the payload.
func (s *Signed) Send(to NodeID, payload []byte) error {
	ch, ok := s.peers[to]
	if !ok {
		return fmt.Errorf("transport: no channel key for %d: %w", to, ErrUnknownPeer)
	}
	framed := make([]byte, 0, TagSize+len(payload))
	ch.mu.Lock()
	framed = tag(ch.send, ch.sendRoute[:], payload, framed)
	ch.mu.Unlock()
	framed = append(framed, payload...)
	return s.inner.Send(to, framed)
}

// Recv implements Endpoint, yielding only authenticated messages.
func (s *Signed) Recv() <-chan Envelope { return s.out }

// Close implements Endpoint.
func (s *Signed) Close() error { return s.inner.Close() }

// Dropped reports how many inbound messages failed authentication.
func (s *Signed) Dropped() int64 { return s.dropped.Load() }

func (s *Signed) pump() {
	defer close(s.out)
	want := make([]byte, 0, TagSize)
	for env := range s.inner.Recv() {
		ch, ok := s.peers[env.From]
		if !ok || env.To != s.ID() || len(env.Payload) < TagSize {
			s.dropped.Add(1)
			continue
		}
		body := env.Payload[TagSize:]
		if !hmac.Equal(tag(ch.recv, ch.recvRoute[:], body, want[:0]), env.Payload[:TagSize]) {
			s.dropped.Add(1)
			continue
		}
		s.out <- Envelope{From: env.From, To: env.To, Payload: body}
	}
}

// tag appends HMAC(k, route ‖ payload) to dst, using the keyed h.
func tag(h hash.Hash, route, payload, dst []byte) []byte {
	h.Reset()
	_, _ = h.Write(route)
	_, _ = h.Write(payload)
	return h.Sum(dst)
}

func route(from, to NodeID) [4]byte {
	var b [4]byte
	binary.BigEndian.PutUint16(b[:2], uint16(from))
	binary.BigEndian.PutUint16(b[2:], uint16(to))
	return b
}

// channelKey derives the key node i shares with peer j:
//
//	k_ij = HMAC-SHA256(X25519(x_i, u_j), channelLabel)
//
// x_i is the Ed25519 secret scalar (SHA-512 of the seed, first half;
// X25519 applies the same clamping Ed25519 does), and u_j is the
// Montgomery form of j's Ed25519 public key. Both sides compute the
// u-coordinate of x_i·x_j·B, so k_ij == k_ji.
func channelKey(priv ed25519.PrivateKey, peer ed25519.PublicKey) ([]byte, error) {
	if len(priv) != ed25519.PrivateKeySize {
		return nil, fmt.Errorf("private key is %d bytes, want %d", len(priv), ed25519.PrivateKeySize)
	}
	u, err := montgomeryU(peer)
	if err != nil {
		return nil, err
	}
	h := sha512.Sum512(priv.Seed())
	x, err := ecdh.X25519().NewPrivateKey(h[:32])
	if err != nil {
		return nil, err
	}
	pu, err := ecdh.X25519().NewPublicKey(u)
	if err != nil {
		return nil, err
	}
	shared, err := x.ECDH(pu) // fails on a low-order peer point
	if err != nil {
		return nil, err
	}
	mac := hmac.New(sha256.New, shared)
	_, _ = mac.Write([]byte(channelLabel))
	return mac.Sum(nil), nil
}

// curveP is the field prime 2^255 - 19 of Curve25519/Ed25519.
var curveP = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))

// montgomeryU maps an Ed25519 public key to the little-endian X25519
// u-coordinate of the same point: u = (1+y)/(1-y) mod p (RFC 7748, §4.1).
// It rejects keys of the wrong length, non-canonical encodings (y >= p),
// and y = 1, the identity, which has no u-coordinate. Setup-time only.
func montgomeryU(pub ed25519.PublicKey) ([]byte, error) {
	if len(pub) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("peer public key is %d bytes, want %d", len(pub), ed25519.PublicKeySize)
	}
	// The encoding is y little-endian, with the sign of x in the top bit.
	var be [32]byte
	for i, b := range pub {
		be[31-i] = b
	}
	be[0] &= 0x7f
	y := new(big.Int).SetBytes(be[:])
	one := big.NewInt(1)
	switch {
	case y.Cmp(curveP) >= 0:
		return nil, errors.New("peer public key is not canonically encoded")
	case y.Cmp(one) == 0:
		return nil, errors.New("peer public key is the identity point")
	}
	den := new(big.Int).Sub(one, y)
	den.ModInverse(den.Mod(den, curveP), curveP)
	u := new(big.Int).Add(one, y)
	u.Mul(u, den).Mod(u, curveP)
	out := u.FillBytes(make([]byte, 32))
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out, nil
}
