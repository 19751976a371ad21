package session

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// appendChain builds a live session over servingWorld(seed) and advances it
// through nBatches randomized appends, returning every epoch's session
// (index == epoch).
func appendChain(t testing.TB, cfg Config, seed int64, nBatches int) []*Session {
	t.Helper()
	s, err := New(servingWorld(t, seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	chain := []*Session{s}
	rng := rand.New(rand.NewSource(seed * 3))
	for b := 0; b < nBatches; b++ {
		s, err = s.Append(randomBatch(rng, s.Dataset(), b))
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, s)
	}
	return chain
}

// TestAsOfRetainedEquivalence pins the spine's retained path: with full
// retention, AsOf(e) on the current session returns serving state
// byte-identical to a full New rebuild over the claims as of epoch e — at
// every worker count.
func TestAsOfRetainedEquivalence(t *testing.T) {
	for _, par := range []int{1, 4, 16} {
		par := par
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
			cfg := DefaultConfig()
			cfg.RetainEpochs = -1
			chain := appendChain(t, cfg, 42+int64(par), 5)
			cur := chain[len(chain)-1]
			for e := 0; e < len(chain); e++ {
				hs, err := cur.AsOf(e)
				if err != nil {
					t.Fatalf("AsOf(%d): %v", e, err)
				}
				if hs.DatasetEpoch() != e {
					t.Fatalf("AsOf(%d) serves epoch %d", e, hs.DatasetEpoch())
				}
				// The retained path must hand back the exact predecessor —
				// no reconstruction.
				if hs != chain[e] {
					t.Fatalf("AsOf(%d) materialized instead of returning the retained session", e)
				}
				de, err := cur.Dataset().At(e)
				if err != nil {
					t.Fatal(err)
				}
				rebuilt, err := New(de, cfg)
				if err != nil {
					t.Fatal(err)
				}
				assertSessionsEqual(t, hs, rebuilt)
			}
			if n := cur.HistMaterializations(); n != 0 {
				t.Fatalf("retained-path AsOf materialized %d epochs", n)
			}
		})
	}
}

// TestAsOfMaterializedEquivalence pins the lazy path: a session reloaded
// from a snapshot carries the full claim log but no retained predecessors,
// so AsOf must reconstruct each epoch — and the reconstruction must be
// byte-identical to a full rebuild (and therefore to the session that
// actually served that epoch, by the append-equivalence invariant).
func TestAsOfMaterializedEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetainEpochs = -1
	chain := appendChain(t, cfg, 7, 4)
	cur := chain[len(chain)-1]

	var buf bytes.Buffer
	if err := cur.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Out of order on purpose: epoch 2 first (Detect replay from the flat
	// origin), then 4 (Refine forward from the cached epoch-2 ancestor),
	// then 1 (ancestor-free again, below everything cached... except epoch
	// ordering finds none strictly below 1 other than none retained).
	for _, e := range []int{2, 4, 1, 0, 3} {
		hs, err := loaded.AsOf(e)
		if err != nil {
			t.Fatalf("AsOf(%d): %v", e, err)
		}
		assertSessionsEqual(t, hs, chain[e])
	}
	if n := loaded.HistMaterializations(); n == 0 {
		t.Fatal("no materializations counted on the lazy path")
	}
	// Repeats serve the cached reconstruction.
	before := loaded.HistMaterializations()
	h1, err := loaded.AsOf(2)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := loaded.AsOf(2)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("repeated AsOf(2) returned distinct sessions")
	}
	if loaded.HistMaterializations() != before {
		t.Fatal("repeated AsOf re-materialized a cached epoch")
	}
}

// TestAsOfRetentionWindow pins the bounded-window contract: epochs inside
// [cur-retain, cur] resolve, everything below the floor or above the
// current epoch is an error, and the floor/gauge accessors agree.
func TestAsOfRetentionWindow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetainEpochs = 2
	chain := appendChain(t, cfg, 11, 5)
	cur := chain[len(chain)-1]
	if got, want := cur.HistoryFloor(), 3; got != want {
		t.Fatalf("HistoryFloor = %d, want %d", got, want)
	}
	if got, want := cur.RetainedEpochs(), 2; got != want {
		t.Fatalf("RetainedEpochs = %d, want %d", got, want)
	}
	for e := 3; e <= 5; e++ {
		if _, err := cur.AsOf(e); err != nil {
			t.Fatalf("AsOf(%d) inside the window: %v", e, err)
		}
	}
	for _, e := range []int{0, 1, 2} {
		if _, err := cur.AsOf(e); err == nil {
			t.Fatalf("AsOf(%d) below the floor accepted", e)
		}
	}
	if _, err := cur.AsOf(6); err == nil {
		t.Fatal("AsOf above the current epoch accepted")
	}
	if _, err := cur.AsOf(-1); err == nil {
		t.Fatal("AsOf(-1) accepted")
	}
}

// TestAsOfRetainZero pins the default: no retention means only the current
// epoch is addressable — the pre-spine behavior.
func TestAsOfRetainZero(t *testing.T) {
	chain := appendChain(t, DefaultConfig(), 13, 2)
	cur := chain[len(chain)-1]
	if hs, err := cur.AsOf(2); err != nil || hs != cur {
		t.Fatalf("AsOf(current) = %v, %v", hs, err)
	}
	if _, err := cur.AsOf(1); err == nil {
		t.Fatal("AsOf(1) accepted with RetainEpochs 0")
	}
	if got := cur.RetainedEpochs(); got != 0 {
		t.Fatalf("RetainedEpochs = %d, want 0", got)
	}
}

// TestAsOfTime pins wall-clock resolution: an instant maps to the greatest
// epoch serving at that time, instants before the chain's origin are an
// error, and the current session answers for anything at or after its
// birth.
func TestAsOfTime(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetainEpochs = -1
	s, err := New(servingWorld(t, 19), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sessions := []*Session{s}
	marks := []time.Time{time.Now()}
	rng := rand.New(rand.NewSource(57))
	for b := 0; b < 3; b++ {
		time.Sleep(2 * time.Millisecond)
		s, err = s.Append(randomBatch(rng, s.Dataset(), b))
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
		marks = append(marks, time.Now())
	}
	cur := sessions[len(sessions)-1]
	for e, mark := range marks {
		hs, err := cur.AsOfTime(mark)
		if err != nil {
			t.Fatalf("AsOfTime(mark %d): %v", e, err)
		}
		if got := hs.DatasetEpoch(); got != e {
			t.Fatalf("AsOfTime(mark %d) resolved epoch %d", e, got)
		}
	}
	if hs, err := cur.AsOfTime(time.Now().Add(time.Hour)); err != nil || hs != cur {
		t.Fatalf("future instant should resolve to current: %v, %v", hs, err)
	}
	if _, err := cur.AsOfTime(marks[0].Add(-time.Hour)); err == nil {
		t.Fatal("instant before the chain origin accepted")
	}
}

// TestHistoryListing pins the History() shape on both a live chain (every
// epoch resident with a birth time) and a snapshot reload (log-only epochs:
// addressable, not resident, no birth time).
func TestHistoryListing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetainEpochs = -1
	chain := appendChain(t, cfg, 29, 3)
	cur := chain[len(chain)-1]
	infos := cur.History()
	if len(infos) != 4 {
		t.Fatalf("History() returned %d epochs, want 4", len(infos))
	}
	for i, info := range infos {
		if info.Epoch != i {
			t.Fatalf("History()[%d].Epoch = %d", i, info.Epoch)
		}
		if !info.Resident {
			t.Fatalf("epoch %d not resident on a fully retained live chain", i)
		}
		if info.Created.IsZero() {
			t.Fatalf("epoch %d has no birth time on a live chain", i)
		}
		if info.Current != (i == 3) {
			t.Fatalf("epoch %d Current = %v", i, info.Current)
		}
	}

	var buf bytes.Buffer
	if err := cur.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	infos = loaded.History()
	if len(infos) != 4 {
		t.Fatalf("loaded History() returned %d epochs, want 4", len(infos))
	}
	for i, info := range infos {
		wantResident := i == 3
		if info.Resident != wantResident {
			t.Fatalf("loaded epoch %d Resident = %v, want %v", i, info.Resident, wantResident)
		}
		if (i < 3) != info.Created.IsZero() {
			t.Fatalf("loaded epoch %d Created zero-ness wrong (restored epochs predate the process)", i)
		}
	}
}

// TestAsOfConcurrent exercises the spine under -race: concurrent as-of
// readers (hitting retained, materializing, and racing the same epoch)
// while the chain keeps appending. All callers materializing one epoch must
// converge on a single cached reconstruction.
func TestAsOfConcurrent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetainEpochs = 3
	chain := appendChain(t, cfg, 31, 2)
	cur := chain[len(chain)-1]

	var snap bytes.Buffer
	if err := cur.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(&snap, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Race many goroutines materializing the same epoch on the loaded
	// (entry-free) spine.
	const racers = 8
	got := make([]*Session, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hs, err := loaded.AsOf(1)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = hs
		}(i)
	}
	wg.Wait()
	for i := 1; i < racers; i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent materializers did not converge on one cached session")
		}
	}

	// Readers walk the retained window while the writer appends through it.
	stop := make(chan struct{})
	var cursess atomic.Pointer[Session]
	cursess.Store(cur)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := cursess.Load()
				infos := s.History()
				info := infos[rng.Intn(len(infos))]
				hs, err := s.AsOf(info.Epoch)
				if err != nil {
					continue // window slid under us; that's the contract
				}
				if _, err := hs.AnswerObjects(hs.Dataset().Objects()[:4]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	rng := rand.New(rand.NewSource(77))
	s := cur
	for b := 2; b < 8; b++ {
		next, err := s.Append(randomBatch(rng, s.Dataset(), b))
		if err != nil {
			t.Error(err)
			break
		}
		s = next
		cursess.Store(s)
	}
	close(stop)
	wg.Wait()
}
