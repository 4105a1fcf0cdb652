package outcomes

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lamb/internal/expr"
)

// TestStoreConcurrentAddNearDecaySnapshotMerge drives every store entry
// point at once: feedback (Add), adaptive reads (Near), decay (a clock
// that advances on every read, with a half-life short enough that each
// touch decays), snapshots (full and local), and peer merges — on a
// store small enough that Add and Merge keep evicting. Run under
// -race it checks the locking; the assertions check the invariants
// that must survive any interleaving: the bound, valid snapshots, and
// finite, positive evidence.
func TestStoreConcurrentAddNearDecaySnapshotMerge(t *testing.T) {
	const maxPoints = 24
	st := NewStore(maxPoints, 50*time.Millisecond)
	var ticks atomic.Int64
	st.SetClock(func() float64 { return 1000 + float64(ticks.Add(1))*1e-3 })

	peer, _ := frozenStore(64, 0)
	for d := 8; d <= 1<<10; d *= 2 {
		peer.Add("AATB", expr.Instance{d, 2 * d, d}, 1+d%3, 1e-3*float64(d))
	}
	peerSnap := peer.SnapshotLocal("p")

	inst := func(g, i int) expr.Instance { return expr.Instance{8 << (i % 8), 16 + g, 8 << (i % 5)} }
	checkObs := func(where string, g, i int) error {
		for _, o := range st.Near("AATB", inst(g, i), 1) {
			if !(o.Weight > 0) || math.IsInf(o.Weight, 0) || !(o.Seconds > 0) || o.Count < 1 {
				return fmt.Errorf("%s: bad observation %+v", where, o)
			}
		}
		return nil
	}

	const workers, rounds = 4, 200
	var wg sync.WaitGroup
	errs := make(chan error, 4*workers)
	for g := 0; g < workers; g++ {
		wg.Add(4)
		go func() { // feedback
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				st.Add("AATB", inst(g, i), 1+i%4, 1e-3*float64(1+i%7))
			}
		}()
		go func() { // adaptive reads
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := checkObs("Near", g, i); err != nil {
					errs <- err
					return
				}
			}
		}()
		go func() { // snapshots, validated as a restart would
			defer wg.Done()
			for i := 0; i < rounds/10; i++ {
				snap := st.Snapshot("p")
				if i%2 == 1 {
					snap = st.SnapshotLocal("p")
				}
				if err := snap.Validate(); err != nil {
					errs <- fmt.Errorf("snapshot: %w", err)
					return
				}
			}
		}()
		go func() { // gossip from two peers
			defer wg.Done()
			for i := 0; i < rounds/10; i++ {
				st.Merge(fmt.Sprintf("http://peer-%d", (g+i)%2), peerSnap, 0.5, nil)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := st.Size(); n < 1 || n > maxPoints {
		t.Fatalf("store holds %d points, bound %d", n, maxPoints)
	}
	snap := st.Snapshot("p")
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(snap.Records) != st.Size() {
		t.Fatalf("snapshot has %d records, store %d points", len(snap.Records), st.Size())
	}
}
