package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// errWrongReceipt marks a vote whose receipt differs from the one printed
// on the voter's ballot line.
var errWrongReceipt = errors.New("receipt does not match the ballot line")

// account counts the operations a run attempts and how each one failed.
// Votes, phases and correctness checks are all operations; a failed one
// counts once against the number attempted.
type account struct {
	attempted atomic.Int64
	errors    atomic.Int64 // votes that returned an error
	timeouts  atomic.Int64 // votes whose context expired
	wrong     atomic.Int64 // votes answered with a wrong receipt
	phases    atomic.Int64 // failed phases (setup, consensus, publish, ...)
	checks    atomic.Int64 // failed correctness checks

	mu    sync.Mutex
	notes []string // first few failure descriptions, for the log
}

// vote classifies one SubmitVote outcome. It returns nil only for a vote
// that got the receipt printed on its ballot line.
func (a *account) vote(ctx context.Context, receipt []byte, err error, want []byte) error {
	a.attempted.Add(1)
	switch {
	case err != nil && (ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded)):
		a.timeouts.Add(1)
	case err != nil:
		a.errors.Add(1)
	case !bytes.Equal(receipt, want):
		a.wrong.Add(1)
		err = errWrongReceipt
	default:
		return nil
	}
	a.note("vote: %v", err)
	return err
}

// phase records one phase outcome and passes err through.
func (a *account) phase(name string, err error) error {
	a.attempted.Add(1)
	if err != nil {
		a.phases.Add(1)
		a.note("%s: %v", name, err)
	}
	return err
}

// check records one correctness check.
func (a *account) check(ok bool, format string, args ...any) {
	a.attempted.Add(1)
	if !ok {
		a.checks.Add(1)
		a.note("check failed: "+format, args...)
	}
}

// skipped counts ops the load generator never sent as failed.
func (a *account) skipped(n int) {
	if n > 0 {
		a.attempted.Add(int64(n))
		a.errors.Add(int64(n))
		a.note("%d scheduled votes were never sent", n)
	}
}

func (a *account) failed() int64 {
	return a.errors.Load() + a.timeouts.Load() + a.wrong.Load() + a.phases.Load() + a.checks.Load()
}

// correct reports whether every output the run produced was checked and
// right: no wrong receipt, no failed check, no phase that left an output
// missing.
func (a *account) correct() bool {
	return a.wrong.Load() == 0 && a.checks.Load() == 0 && a.phases.Load() == 0
}

func (a *account) note(format string, args ...any) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.notes) < 10 {
		a.notes = append(a.notes, fmt.Sprintf(format, args...))
	}
}
