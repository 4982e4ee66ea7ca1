package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"ddemos/internal/clock"
	"ddemos/internal/wire"
)

// DefaultBatchWindow is the flush window used when BatcherOptions does not
// pick one: one LAN round-trip, so coalescing never costs more latency than
// a single extra network hop.
const DefaultBatchWindow = 200 * time.Microsecond

// BatcherOptions tunes the coalescing behaviour of a Batcher.
type BatcherOptions struct {
	// Window is how long a queued message may wait for companions before
	// the batch is flushed (default DefaultBatchWindow).
	Window time.Duration
	// MaxMessages flushes a destination's queue as soon as it holds this
	// many messages (default 128, clamped to wire.MaxBatchFrames so every
	// flushed batch stays decodable at the receiver).
	MaxMessages int
	// MaxBytes flushes a destination's queue as soon as its payload bytes
	// reach this threshold (default 512 KiB), keeping batches under frame
	// limits on every transport.
	MaxBytes int
	// OnSendError, when set, observes every deferred-flush failure (timer
	// and shutdown flushes have no caller to return an error to; without a
	// hook those drops are invisible outside the SendErrors counter).
	OnSendError func(to NodeID, err error)
	// Timers schedules the flush-window timer (default the real clock).
	// Pass a sim.Driver or clock.Fake to drive flush windows in virtual
	// time.
	Timers clock.Timers
}

func (o BatcherOptions) withDefaults() BatcherOptions {
	if o.Window <= 0 {
		o.Window = DefaultBatchWindow
	}
	if o.MaxMessages <= 0 {
		o.MaxMessages = 128
	}
	if o.MaxMessages > wire.MaxBatchFrames {
		o.MaxMessages = wire.MaxBatchFrames
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = 512 << 10
	}
	// Keep every encoded batch (payload + one possible frame over the
	// threshold + per-frame length prefixes) well under maxTCPFrame, or a
	// flush would be rejected by the receiving TCP read loop.
	if o.MaxBytes > maxTCPFrame/2 {
		o.MaxBytes = maxTCPFrame / 2
	}
	if o.Timers == nil {
		o.Timers = clock.Real{}
	}
	return o
}

// Batcher wraps an Endpoint and coalesces outgoing payloads per destination
// into wire.Batch envelopes: a payload waits at most Window for companions,
// and a queue flushes early when it reaches MaxMessages or MaxBytes. The
// receive path splits incoming Batch frames back into individual Envelopes,
// so the layers above see the ordinary one-message-per-envelope contract on
// both Memnet and TCP.
//
// Payloads must be wire frames (every inter-VC message is): the unbatching
// path distinguishes batches by the leading wire.Kind byte. Stacked outside
// a Signed endpoint, each flushed batch is tagged and checked exactly once.
//
// Send never blocks on the flush: timer flushes run on their own goroutine
// and threshold flushes run on the sender, each serialized per destination
// so per-link FIFO ordering is preserved.
type Batcher struct {
	inner Endpoint
	opts  BatcherOptions

	mu     sync.Mutex
	queues map[NodeID]*destQueue
	closed bool

	out  chan Envelope
	done chan struct{}

	batchesSent atomic.Int64
	msgsSent    atomic.Int64
	sendErrors  atomic.Int64
	badBatches  atomic.Int64
}

// destQueue buffers pending frames for one destination. sendMu serializes
// flushes per destination (it is acquired before the frames are taken, never
// while holding mu), so a threshold flush cannot overtake a timer flush on
// the same link.
type destQueue struct {
	frames [][]byte
	bytes  int
	timer  clock.Timer

	sendMu sync.Mutex
}

var _ Endpoint = (*Batcher)(nil)

// NewBatcher wraps inner with per-destination coalescing.
func NewBatcher(inner Endpoint, opts BatcherOptions) *Batcher {
	b := &Batcher{
		inner:  inner,
		opts:   opts.withDefaults(),
		queues: make(map[NodeID]*destQueue),
		out:    make(chan Envelope, 256),
		done:   make(chan struct{}),
	}
	go b.pump()
	return b
}

// ID implements Endpoint.
func (b *Batcher) ID() NodeID { return b.inner.ID() }

// Recv implements Endpoint, yielding unbatched individual messages.
func (b *Batcher) Recv() <-chan Envelope { return b.out }

// Send implements Endpoint: the payload is queued and flushed to the inner
// endpoint within the batch window. Errors from deferred flushes surface via
// SendErrors; an error is returned only when the batcher is already closed
// or when this call itself triggers a threshold flush that fails.
func (b *Batcher) Send(to NodeID, payload []byte) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	q, ok := b.queues[to]
	if !ok {
		q = &destQueue{}
		b.queues[to] = q
	}
	if len(payload) >= wire.MaxBatchableFrame {
		// Too large for a batch envelope's inner-frame cap (e.g. a whole
		// election's ANNOUNCE): flush what's queued to keep FIFO order,
		// then pass the frame through unwrapped.
		b.mu.Unlock()
		if err := b.flushQueue(to, q); err != nil {
			b.noteSendError(to, err)
		}
		q.sendMu.Lock()
		defer q.sendMu.Unlock()
		return b.inner.Send(to, payload)
	}
	q.frames = append(q.frames, payload)
	q.bytes += len(payload)
	full := len(q.frames) >= b.opts.MaxMessages || q.bytes >= b.opts.MaxBytes
	if !full && q.timer == nil {
		q.timer = b.opts.Timers.AfterFunc(b.opts.Window, func() {
			if err := b.flushQueue(to, q); err != nil {
				b.noteSendError(to, err)
			}
		})
	}
	b.mu.Unlock()
	if full {
		return b.flushQueue(to, q)
	}
	return nil
}

// flushQueue drains and delivers one destination's queue. The per-queue
// sendMu is taken before the frames are, so concurrent timer and threshold
// flushes cannot reorder batches on a link: whoever wins the lock takes
// everything pending, the loser finds the queue empty.
func (b *Batcher) flushQueue(to NodeID, q *destQueue) error {
	q.sendMu.Lock()
	defer q.sendMu.Unlock()
	return b.flushQueueLocked(to, q)
}

// flushQueueLocked is flushQueue with q.sendMu already held.
func (b *Batcher) flushQueueLocked(to NodeID, q *destQueue) error {
	b.mu.Lock()
	frames := q.frames
	q.frames = nil
	q.bytes = 0
	if q.timer != nil {
		q.timer.Stop()
		q.timer = nil
	}
	b.mu.Unlock()
	if len(frames) == 0 {
		return nil
	}
	// Concurrent Sends may append past the thresholds between a flush
	// trigger and this drain (appends only block on sendMu after queueing),
	// so re-chunk here by both caps: no batch exceeds the configured
	// MaxMessages (≤ wire.MaxBatchFrames after withDefaults) or the
	// MaxBytes payload bound. A chunk always takes at least one frame — a
	// lone frame above MaxBytes still fits every transport, since batchable
	// frames are capped at wire.MaxBatchableFrame.
	var firstErr error
	for len(frames) > 0 {
		cut, bytes := 0, 0
		for cut < len(frames) && cut < b.opts.MaxMessages {
			if cut > 0 && bytes+len(frames[cut]) > b.opts.MaxBytes {
				break
			}
			bytes += len(frames[cut])
			cut++
		}
		chunk := frames[:cut]
		frames = frames[cut:]
		if err := b.inner.Send(to, wire.EncodeBatch(chunk)); err != nil {
			// Later chunks still get their attempt — the inner endpoint
			// redials on failure, so one dead connection must not drop the
			// rest of the queue the way it would not have dropped
			// individually-sent messages.
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		b.batchesSent.Add(1)
		b.msgsSent.Add(int64(len(chunk)))
	}
	return firstErr
}

// Flush synchronously drains every destination queue: shutdown, tests, and
// senders whose frame has no companions coming (vote-set consensus rounds).
func (b *Batcher) Flush() { b.flush(false) }

func (b *Batcher) flush(try bool) {
	b.mu.Lock()
	queues := make(map[NodeID]*destQueue, len(b.queues))
	for to, q := range b.queues {
		queues[to] = q
	}
	b.mu.Unlock()
	for to, q := range queues {
		if try {
			// Best-effort: an in-flight flush owns this link — possibly
			// blocked in a write to a peer that stopped reading — and
			// waiting for it would deadlock Close against the very
			// inner.Close that unblocks the write. Skip; the owner drains
			// the queue or errors out when the connection closes.
			if !q.sendMu.TryLock() {
				continue
			}
			err := b.flushQueueLocked(to, q)
			q.sendMu.Unlock()
			if err != nil {
				b.noteSendError(to, err)
			}
			continue
		}
		if err := b.flushQueue(to, q); err != nil {
			b.noteSendError(to, err)
		}
	}
}

// Close implements Endpoint: pending batches are flushed best-effort first.
func (b *Batcher) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.mu.Unlock()
	b.flush(true)
	close(b.done)
	return b.inner.Close()
}

// Stats reports (batches sent, messages sent): the coalescing ratio.
func (b *Batcher) Stats() (batches, msgs int64) {
	return b.batchesSent.Load(), b.msgsSent.Load()
}

// SendErrors reports how many deferred flushes failed.
func (b *Batcher) SendErrors() int64 { return b.sendErrors.Load() }

// noteSendError records a deferred-flush failure and surfaces it to the
// OnSendError hook, if any.
func (b *Batcher) noteSendError(to NodeID, err error) {
	b.sendErrors.Add(1)
	if b.opts.OnSendError != nil {
		b.opts.OnSendError(to, err)
	}
}

// BadBatches reports how many inbound batch envelopes failed to parse.
func (b *Batcher) BadBatches() int64 { return b.badBatches.Load() }

// pump splits inbound batch envelopes into individual messages.
func (b *Batcher) pump() {
	defer close(b.out)
	for env := range b.inner.Recv() {
		if !wire.IsBatchFrame(env.Payload) {
			if !b.emit(env) {
				return
			}
			continue
		}
		frames, err := wire.SplitBatch(env.Payload)
		if err != nil {
			b.badBatches.Add(1)
			continue
		}
		for _, f := range frames {
			if !b.emit(Envelope{From: env.From, To: env.To, Payload: f}) {
				return
			}
		}
	}
}

func (b *Batcher) emit(env Envelope) bool {
	select {
	case b.out <- env:
		return true
	case <-b.done:
		return false
	}
}
