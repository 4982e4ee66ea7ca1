package core

import (
	"testing"
	"time"

	"ddemos/internal/sig"
)

// TestEd25519OpsPerVote pins the Ed25519 cost of the vote path on a seeded
// Nv=4 election: each VC signs one endorsement per ballot (4 signs), and
// the 24 verifies are the responder's endorsement checks (3), every other
// node's UCERT check (3 × 3) and every node's check of the other nodes'
// receipt shares (4 × 3). Authenticating and batching the channels must
// not add a single operation: channel tags are MACs, not signatures.
func TestEd25519OpsPerVote(t *testing.T) {
	const (
		votes           = 8
		signsPerVote    = 4
		verifiesPerVote = 24
	)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{}},
		{"authenticated", Options{Authenticated: true}},
		{"authenticated+batched", Options{Authenticated: true, BatchWindow: 500 * time.Microsecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCluster(testData(t, votes), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			s0, v0 := sig.Ops()
			castAll(t, c, []int{0, 1, 2, 0, 1, 2, 0, 1})
			// The receipt reaches the voter before the other nodes finish
			// their share and certificate checks: wait for the count, then
			// give any surplus operation time to show.
			deadline := time.Now().Add(10 * time.Second)
			for {
				if _, v := sig.Ops(); v-v0 >= votes*verifiesPerVote || time.Now().After(deadline) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			time.Sleep(50 * time.Millisecond)
			s1, v1 := sig.Ops()
			if got := s1 - s0; got != votes*signsPerVote {
				t.Errorf("%d Ed25519 signs for %d votes, want %d per vote", got, votes, signsPerVote)
			}
			if got := v1 - v0; got != votes*verifiesPerVote {
				t.Errorf("%d Ed25519 verifies for %d votes, want %d per vote", got, votes, verifiesPerVote)
			}
		})
	}
}
