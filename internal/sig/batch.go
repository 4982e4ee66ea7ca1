package sig

import (
	"crypto/ed25519"
	"crypto/sha512"
	"encoding/binary"
	"runtime"
	"sync"
)

// VerifyMany verifies many independent (signer, message, signature) tuples
// at once — the path for mixed-sender batches such as a worker's backlog of
// ENDORSEMENTs, where each signature must stand on its own because it later
// becomes UCERT evidence. Identical tuples are verified once and large
// batches fan out across CPUs (DESIGN.md, "Batched message pipeline").
//
// True cofactored Ed25519 batch verification (one multi-scalar equation for
// k signatures) needs curve internals crypto/ed25519 does not expose; the
// dedup + parallel path keeps the API shape so the arithmetic can be swapped
// in without touching callers.

// Item is one signature to check in VerifyMany: a signature over the
// domain-separated parts, expected from Pub.
type Item struct {
	Pub   ed25519.PublicKey
	Sig   []byte
	Parts [][]byte
}

// verifyManyParallelMin is the batch size from which VerifyMany fans out
// across CPUs; below it the goroutine handoff costs more than it saves.
const verifyManyParallelMin = 8

// VerifyMany verifies many independent signatures under one domain and
// reports each item's validity. Duplicate items (same key, signature and
// message) are verified once; batches of verifyManyParallelMin or more fan
// out across min(GOMAXPROCS, len) workers. This is the mixed-sender batch
// path: each signature stays individually attributable.
func VerifyMany(domain string, items []Item) []bool {
	ok := make([]bool, len(items))
	if len(items) == 0 {
		return ok
	}
	if len(items) == 1 {
		// The unbatched steady state: one message per pump round must not
		// pay for fingerprinting and dedup bookkeeping.
		it := &items[0]
		ok[0] = Verify(it.Pub, it.Sig, domain, it.Parts...)
		return ok
	}
	// Dedup: duplicated endorsements (network-level duplication, responder
	// retries) resolve to one verification.
	type dupKey string
	first := make(map[dupKey]int, len(items))
	dupOf := make([]int, len(items))
	for i := range items {
		k := dupKey(itemFingerprint(&items[i]))
		if j, seen := first[k]; seen {
			dupOf[i] = j
		} else {
			first[k] = i
			dupOf[i] = i
		}
	}
	verify := func(i int) {
		it := &items[i]
		ok[i] = Verify(it.Pub, it.Sig, domain, it.Parts...)
	}
	uniques := make([]int, 0, len(first))
	for i := range items {
		if dupOf[i] == i {
			uniques = append(uniques, i)
		}
	}
	if len(uniques) < verifyManyParallelMin {
		for _, i := range uniques {
			verify(i)
		}
	} else {
		workers := runtime.GOMAXPROCS(0)
		if workers > len(uniques) {
			workers = len(uniques)
		}
		var next int
		var mu sync.Mutex
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					if next == len(uniques) {
						mu.Unlock()
						return
					}
					i := uniques[next]
					next++
					mu.Unlock()
					verify(i)
				}
			}()
		}
		wg.Wait()
	}
	for i := range items {
		if dupOf[i] != i {
			ok[i] = ok[dupOf[i]]
		}
	}
	return ok
}

// itemFingerprint builds the dedup key for VerifyMany using the package's
// canonical length framing.
func itemFingerprint(it *Item) []byte {
	h := sha512.New()
	hashFramed(h, it.Pub, it.Sig)
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(it.Parts)))
	h.Write(n[:])
	hashFramed(h, it.Parts...)
	return h.Sum(nil)
}
