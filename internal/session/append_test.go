package session

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/linkage"
	"sourcecurrents/internal/model"
)

// randomBatch draws a varied append batch against d's current population:
// mostly existing sources and objects re-asserting or contradicting, with
// occasional brand-new sources, brand-new objects and brand-new values —
// the mid-stream growth the equivalence invariant must survive.
func randomBatch(rng *rand.Rand, d *dataset.Dataset, batchNum int) []model.Claim {
	srcs := d.Sources()
	objs := d.Objects()
	n := 1 + rng.Intn(12)
	batch := make([]model.Claim, 0, n)
	for i := 0; i < n; i++ {
		var s model.SourceID
		if rng.Intn(6) == 0 {
			s = model.SourceID(fmt.Sprintf("X%d_%d", batchNum, i))
		} else {
			s = srcs[rng.Intn(len(srcs))]
		}
		var o model.ObjectID
		if rng.Intn(6) == 0 {
			o = model.Obj(fmt.Sprintf("n%05d_%d", batchNum, i), "v")
		} else {
			o = objs[rng.Intn(len(objs))]
		}
		v := fmt.Sprintf("T%d", rng.Intn(60))
		if rng.Intn(3) == 0 {
			v = fmt.Sprintf("B%d_%d", batchNum, rng.Intn(4))
		}
		batch = append(batch, model.NewClaim(s, o, v))
	}
	return batch
}

// assertSessionsEqual asserts that every serving output of got and want is
// byte-identical: accuracies, the full dependence verdict set, answer
// traces over several query shapes, fusion, and linkage.
func assertSessionsEqual(t *testing.T, got, want *Session) {
	t.Helper()
	if !reflect.DeepEqual(got.Accuracy(), want.Accuracy()) {
		t.Fatalf("accuracy maps differ")
	}
	gd, wd := got.Dependence(), want.Dependence()
	if !reflect.DeepEqual(gd.AllPairs, wd.AllPairs) {
		t.Fatalf("AllPairs differ")
	}
	if !reflect.DeepEqual(gd.Dependences, wd.Dependences) {
		t.Fatalf("Dependences differ")
	}
	if !reflect.DeepEqual(gd.Truth.Probs, wd.Truth.Probs) {
		t.Fatalf("truth posteriors differ")
	}
	for qi, q := range queries(got.Dataset()) {
		ga, err := servedTrace(got, q)
		if err != nil {
			t.Fatal(err)
		}
		wa, err := servedTrace(want, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ga, wa) {
			t.Fatalf("query %d: answers differ", qi)
		}
	}
	gf, err := got.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	wf, err := want.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gf.Chosen, wf.Chosen) || !reflect.DeepEqual(gf.Relation, wf.Relation) {
		t.Fatalf("fusion outputs differ")
	}
	gl, err := got.Link(linkage.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	wl, err := want.Link(linkage.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gl, wl) {
		t.Fatalf("linkage outputs differ")
	}
}

// TestAppendEquivalence pins the tentpole invariant: after N randomized
// appended batches (varied sizes, new sources and objects mid-stream), a
// session advanced live through Append is byte-identical to a full New
// rebuild over the same successor dataset — at every worker count.
func TestAppendEquivalence(t *testing.T) {
	for _, par := range []int{1, 4, 16} {
		par := par
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
			rng := rand.New(rand.NewSource(42 + int64(par)))
			cfg := DefaultConfig()
			live, err := New(servingWorld(t, 17), cfg)
			if err != nil {
				t.Fatal(err)
			}
			const nBatches = 6
			for b := 0; b < nBatches; b++ {
				batch := randomBatch(rng, live.Dataset(), b)
				live, err = live.Append(batch)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := live.Dataset().Epoch(), b+1; got != want {
					t.Fatalf("epoch = %d, want %d", got, want)
				}
				rebuilt, err := New(live.Dataset(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				assertSessionsEqual(t, live, rebuilt)
			}
		})
	}
}

// TestAppendEquivalenceAcrossParallelism asserts the appended results are
// additionally bit-identical across worker counts, like every other solver
// path in the repo.
func TestAppendEquivalenceAcrossParallelism(t *testing.T) {
	build := func(par int) *Session {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
		rng := rand.New(rand.NewSource(99))
		s, err := New(servingWorld(t, 31), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 4; b++ {
			s2, err := s.Append(randomBatch(rng, s.Dataset(), b))
			if err != nil {
				t.Fatal(err)
			}
			s = s2
		}
		return s
	}
	want := build(1)
	for _, par := range []int{4, 16} {
		assertSessionsEqual(t, build(par), want)
	}
}

// TestAppendRejectsBadBatches pins the Append error contract.
func TestAppendRejectsBadBatches(t *testing.T) {
	s, err := New(servingWorld(t, 5), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := s.Append([]model.Claim{{}}); err == nil {
		t.Fatal("invalid claim accepted")
	}
	// The receiver still serves after a rejected append.
	if _, err := s.AnswerObjects(s.Dataset().Objects()[:3]); err != nil {
		t.Fatal(err)
	}
}

// TestAppendSnapshotRoundTrip pins that a live-appended session snapshots
// and reloads into identical serving state (the dataset snapshot carries
// the log, the session snapshot the refined precompute).
func TestAppendSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s, err := New(servingWorld(t, 7), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 3; b++ {
		s2, err := s.Append(randomBatch(rng, s.Dataset(), b))
		if err != nil {
			t.Fatal(err)
		}
		s = s2
	}
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(&buf, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Dataset().Epoch(), s.Dataset().Epoch(); got != want {
		t.Fatalf("loaded epoch = %d, want %d", got, want)
	}
	assertSessionsEqual(t, loaded, s)
}

// TestAppendConcurrentAnswers mixes live appends with concurrent answer and
// fusion traffic over the retired epochs — the swap pattern the server
// runs. Meaningful under -race; it asserts retired sessions keep serving
// unperturbed while successors are built from them.
func TestAppendConcurrentAnswers(t *testing.T) {
	s, err := New(servingWorld(t, 23), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var cur atomic.Pointer[Session]
	cur.Store(s)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sess := cur.Load()
				objs := sess.Dataset().Objects()
				if _, err := sess.AnswerObjects(objs[:8]); err != nil {
					t.Error(err)
					return
				}
				if _, err := sess.Fuse(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(51))
	for b := 0; b < 8; b++ {
		prev := cur.Load()
		next, err := prev.Append(randomBatch(rng, prev.Dataset(), b))
		if err != nil {
			t.Error(err)
			break
		}
		cur.Store(next)
	}
	close(stop)
	wg.Wait()
}

// TestAppendTwiceFromOneSession pins the pattern bench/layers.go times: the
// same batch appended onto a session's dataset and then onto the session
// itself, at every link of a chain. Only the first successor of a dataset may
// extend the shared claim log; the session's own is then the second, copies,
// and must come out identical to a rebuild, with the first left as it was.
func TestAppendTwiceFromOneSession(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cur, err := New(servingWorld(t, 23), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 4; k++ {
		batch := randomBatch(rng, cur.Dataset(), k)
		direct, err := cur.Dataset().Append(batch)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]model.Claim(nil), direct.Claims()...)
		next, err := cur.Append(batch)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(next.Dataset().Claims(), want) || !reflect.DeepEqual(direct.Claims(), want) {
			t.Fatalf("batch %d: the two successors of one dataset disagree on its claims", k)
		}
		rebuilt, err := New(direct, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		assertSessionsEqual(t, next, rebuilt)
		cur = next
	}
}
