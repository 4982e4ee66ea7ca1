// Package sig provides domain-separated Ed25519 signing helpers. The
// Election Authority generates every key pair in the system (§III-D: no
// external PKI). Every transferable signature the protocol keeps as
// evidence goes through these helpers; the inter-VC channels derive their
// pairwise MAC keys from the same key pairs (transport.Signed).
package sig

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"
)

// KeyPair bundles an Ed25519 key pair.
type KeyPair struct {
	Public  ed25519.PublicKey
	Private ed25519.PrivateKey
}

// NewKeyPair generates a key pair from rnd.
func NewKeyPair(rnd io.Reader) (KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rnd)
	if err != nil {
		return KeyPair{}, fmt.Errorf("sig: generating key: %w", err)
	}
	return KeyPair{Public: pub, Private: priv}, nil
}

// The canonical framing of this package: every part is prefixed with its
// u64 big-endian length, so no two distinct part sequences collide.
// appendFramed builds framed byte strings (signed messages); hashFramed
// streams the identical framing into a hash (batch digests, fingerprints).
// The two must stay byte-for-byte equivalent.

func appendFramed(buf []byte, parts ...[]byte) []byte {
	var n [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		buf = append(buf, n[:]...)
		buf = append(buf, p...)
	}
	return buf
}

func hashFramed(h io.Writer, parts ...[]byte) {
	var n [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		_, _ = h.Write(n[:])
		_, _ = h.Write(p)
	}
}

// message builds the canonical, length-prefixed byte string for a domain and
// parts, so that no two distinct (domain, parts) tuples collide.
func message(domain string, parts [][]byte) []byte {
	size := 8 + len(domain)
	for _, p := range parts {
		size += 8 + len(p)
	}
	buf := appendFramed(make([]byte, 0, size), []byte(domain))
	return appendFramed(buf, parts...)
}

// signs and verifies count the Ed25519 operations of the whole process;
// every signature in the system goes through Sign and Verify.
var signs, verifies atomic.Uint64

// Ops reports how many Ed25519 signatures the process has made and
// checked so far. Tests and benchmarks take differences of it to pin the
// signature cost of a code path.
func Ops() (signed, verified uint64) { return signs.Load(), verifies.Load() }

// Sign signs the domain-separated message.
func Sign(priv ed25519.PrivateKey, domain string, parts ...[]byte) []byte {
	signs.Add(1)
	return ed25519.Sign(priv, message(domain, parts))
}

// Verify checks a signature produced by Sign.
func Verify(pub ed25519.PublicKey, sigBytes []byte, domain string, parts ...[]byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sigBytes) != ed25519.SignatureSize {
		return false
	}
	verifies.Add(1)
	return ed25519.Verify(pub, message(domain, parts), sigBytes)
}

// Uint64Bytes is a helper for signing integer fields.
func Uint64Bytes(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}
