// Package transport is the asynchronous communications stack of the system
// (the paper's Netty-based ACS, §V): message-oriented, connectionless from
// the application's point of view, with authenticated inter-node channels.
//
// Two interchangeable networks are provided:
//
//   - Memnet: an in-process simulated network with configurable per-link
//     latency, jitter, drop, duplication and partitions. It stands in for
//     the paper's Gigabit-LAN cluster and the netem-emulated WAN, and adds
//     the fault injection used by the test suite.
//   - TCP: a real TCP transport with length-prefixed frames for multi-process
//     deployments (cmd/ddemos-vc and friends).
//
// The Signed wrapper adds pairwise HMAC-SHA256 authentication keyed from
// the EA-issued node keys, realizing the paper's "private and authenticated
// channels" between VC nodes without external PKI.
//
// The Batcher wrapper coalesces outgoing payloads per destination within a
// flush window into single wire.Batch frames and splits inbound batches back
// into individual envelopes — the transport stage of the batched message
// pipeline (DESIGN.md). Stacking order is endpoint → Signed → Batcher, so an
// entire batch is authenticated by one tag.
package transport

import (
	"errors"
	"fmt"
)

// NodeID identifies a node on a network.
type NodeID uint16

// Envelope is a received message.
type Envelope struct {
	From    NodeID
	To      NodeID
	Payload []byte
}

// Endpoint is one node's attachment to a network. Send is asynchronous and
// never blocks on the receiver; Recv yields incoming messages until the
// endpoint is closed.
type Endpoint interface {
	ID() NodeID
	Send(to NodeID, payload []byte) error
	Recv() <-chan Envelope
	Close() error
}

// Multicast sends payload to every id in targets except the sender itself.
// It keeps going on per-target errors and returns the first one encountered
// (messages to crashed peers are expected to fail; retransmission is the
// caller's policy).
func Multicast(ep Endpoint, targets []NodeID, payload []byte) error {
	var first error
	for _, t := range targets {
		if t == ep.ID() {
			continue
		}
		if err := ep.Send(t, payload); err != nil && first == nil {
			first = fmt.Errorf("transport: multicast to %d: %w", t, err)
		}
	}
	return first
}

// ErrClosed is returned by operations on a closed endpoint or network.
var ErrClosed = errors.New("transport: closed")

// ErrUnknownPeer is returned when sending to an unregistered node.
var ErrUnknownPeer = errors.New("transport: unknown peer")
