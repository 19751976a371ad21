package session

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/depen"
	"sourcecurrents/internal/model"
)

// Differential suite for the dense solve state: a session advanced state to
// state, with a Result view built only when something asks for one, must be
// the session New builds over the same successor dataset — to the bit, at
// every epoch, wherever the chain started and whatever the batches grew.

// bitsDiff reports the first element at which two float vectors differ as
// bit patterns.
func bitsDiff(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// viewDiff compares two discovery results as their readers see them: every
// exported field, floats by bit pattern, and the directional table through
// CopyProb over every source pair. It is what the snapshot suites compare a
// decoded Result to a solved one with — reflect.DeepEqual on the two would
// also compare the solve state, which only the solved one carries.
func viewDiff(got, want *depen.Result) error {
	if got.Rounds != want.Rounds || got.Converged != want.Converged ||
		got.Truth.Rounds != want.Truth.Rounds || got.Truth.Converged != want.Truth.Converged {
		return fmt.Errorf("rounds/converged differ")
	}
	if !reflect.DeepEqual(got.Truth.Chosen, want.Truth.Chosen) {
		return fmt.Errorf("chosen values differ")
	}
	if len(got.Truth.Accuracy) != len(want.Truth.Accuracy) || len(got.Truth.Probs) != len(want.Truth.Probs) {
		return fmt.Errorf("accuracy/posterior maps differ in size")
	}
	var srcs []model.SourceID
	for s, w := range want.Truth.Accuracy {
		if g, ok := got.Truth.Accuracy[s]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("accuracy of %s = %v, want %v", s, g, w)
		}
		srcs = append(srcs, s)
	}
	for o, wpv := range want.Truth.Probs {
		gpv := got.Truth.Probs[o]
		if len(gpv) != len(wpv) {
			return fmt.Errorf("posterior of %v has %d values, want %d", o, len(gpv), len(wpv))
		}
		for v, w := range wpv {
			if g, ok := gpv[v]; !ok || math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Errorf("posterior of %v=%q is %v, want %v", o, v, g, w)
			}
		}
	}
	for _, l := range []struct {
		what      string
		got, want []depen.Dependence
	}{{"AllPairs", got.AllPairs, want.AllPairs}, {"Dependences", got.Dependences, want.Dependences}} {
		if len(l.got) != len(l.want) || (l.got == nil) != (l.want == nil) {
			return fmt.Errorf("%s: %d pairs, want %d", l.what, len(l.got), len(l.want))
		}
		for i := range l.want {
			g, w := l.got[i], l.want[i]
			if g.Pair != w.Pair || g.Shared != w.Shared || g.Same != w.Same {
				return fmt.Errorf("%s[%d] = %+v, want %+v", l.what, i, g, w)
			}
			if err := bitsDiff(fmt.Sprintf("%s[%d] %v", l.what, i, w.Pair),
				[]float64{g.Prob, g.ProbAB, g.ProbBA, g.KT, g.KF, g.KD},
				[]float64{w.Prob, w.ProbAB, w.ProbBA, w.KT, w.KF, w.KD}); err != nil {
				return err
			}
		}
	}
	for _, a := range srcs {
		for _, b := range srcs {
			g, _ := got.State().CopyProbs(a, b)
			w, _ := want.State().CopyProbs(a, b)
			if math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Errorf("CopyProbs(%s, %s) = %v, want %v", a, b, g, w)
			}
		}
	}
	return nil
}

// denseDiff compares what an append and an answer read — the accuracy vector
// and the totals table — without touching either session's Result view.
func denseDiff(got, want *Session) error {
	if err := bitsDiff("acc", got.acc, want.acc); err != nil {
		return err
	}
	return bitsDiff("depTab", got.depTab, want.depTab)
}

// growthBatches is the schedule every chain runs: batches that grow each
// table the state is indexed by, between random ones.
func growthBatches(rng *rand.Rand) []func(*dataset.Dataset) []model.Claim {
	random := func(n int) func(*dataset.Dataset) []model.Claim {
		return func(d *dataset.Dataset) []model.Claim { return randomBatch(rng, d, n) }
	}
	return []func(*dataset.Dataset) []model.Claim{
		random(0),
		// A new source that sorts before every existing one: every source
		// index shifts.
		func(d *dataset.Dataset) []model.Claim {
			var b []model.Claim
			for _, o := range d.Objects()[:20] {
				v, _ := d.Value(d.Sources()[0], o)
				b = append(b, model.NewClaim("A-first", o, v))
			}
			return b
		},
		// New objects at both ends of the object table.
		func(d *dataset.Dataset) []model.Claim {
			srcs := d.Sources()
			return []model.Claim{
				model.NewClaim(srcs[1], model.Obj("a-new", "v"), "x"),
				model.NewClaim(srcs[2], model.Obj("a-new", "v"), "x"),
				model.NewClaim(srcs[len(srcs)-1], model.Obj("zz-new", "v"), "y"),
			}
		},
		random(3),
		// New values on existing objects: one source abandons a value (its
		// group may vanish), another asserts one nobody has.
		func(d *dataset.Dataset) []model.Claim {
			srcs, objs := d.Sources(), d.Objects()
			return []model.Claim{
				model.NewClaim(srcs[3], objs[7], "0-brand-new"),
				model.NewClaim(srcs[4], objs[7], "zz-brand-new"),
				model.NewClaim(srcs[3], objs[9], "0-brand-new"),
			}
		},
		// Object-major: every source speaks on one object, so every source
		// and every pair is dirty.
		func(d *dataset.Dataset) []model.Claim {
			var b []model.Claim
			for i, s := range d.Sources() {
				b = append(b, model.NewClaim(s, d.Objects()[11], fmt.Sprintf("T%d", i%3)))
			}
			return b
		},
		random(6),
	}
}

// chainStart opens the session a chain starts from.
type chainStart struct {
	name string
	open func(t *testing.T, cfg Config) *Session
}

// chainStarts are the sessions the state chains start from: built by New,
// and — with a log of two batches — read from a stream ("v1"), read from a
// file ("v2-mapped") and rebuilt as of epoch 1.
func chainStarts() []chainStart {
	base := func(t *testing.T, cfg Config) *Session {
		s, err := New(servingWorld(t, 17), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// appended is the base after two batches, so the loaded starts carry a log.
	appended := func(t *testing.T, cfg Config) *Session {
		s := base(t, cfg)
		rng := rand.New(rand.NewSource(5))
		for b := 0; b < 2; b++ {
			next, err := s.Append(randomBatch(rng, s.Dataset(), 100+b))
			if err != nil {
				t.Fatal(err)
			}
			s = next
		}
		return s
	}
	return []chainStart{
		{"new", base},
		// "v1" and "v2-mapped" are the one snapshot format's two load paths:
		// a stream, and a file (the names are older than the format).
		{"v1", func(t *testing.T, cfg Config) *Session {
			s, err := LoadSnapshot(bytes.NewReader(snapshotBytes(t, appended(t, cfg))), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"v2-mapped", func(t *testing.T, cfg Config) *Session {
			return loadFile(t, snapshotBytes(t, appended(t, cfg)), cfg)
		}},
		{"as-of", func(t *testing.T, cfg Config) *Session {
			// A loaded session retains nothing, so epoch 1 is rebuilt.
			s, err := LoadSnapshot(bytes.NewReader(snapshotBytes(t, appended(t, cfg))), cfg)
			if err != nil {
				t.Fatal(err)
			}
			hs, err := s.AsOf(1)
			if err != nil {
				t.Fatal(err)
			}
			if s.HistMaterializations() != 1 {
				t.Fatal("epoch 1 was meant to be materialised, not retained")
			}
			return hs
		}},
	}
}

func TestStateChainEquivalence(t *testing.T) {
	for _, start := range chainStarts() {
		for _, par := range []int{1, 4} {
			start, par := start, par
			t.Run(fmt.Sprintf("%s/par%d", start.name, par), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
				cfg := DefaultConfig()
				cfg.RetainEpochs = -1
				// read has a Result view built at random epochs, before the
				// append that chains off it; lazy never, until the chain has
				// ended.
				read, lazy := start.open(t, cfg), start.open(t, cfg)
				first := lazy.DatasetEpoch()
				rng := rand.New(rand.NewSource(77))
				var rebuilt []*Session
				for e, mk := range growthBatches(rand.New(rand.NewSource(9))) {
					if rng.Intn(2) == 0 {
						read.Dependence()
					}
					batch := mk(read.Dataset())
					var err error
					if read, err = read.Append(batch); err != nil {
						t.Fatal(err)
					}
					if lazy, err = lazy.Append(batch); err != nil {
						t.Fatal(err)
					}
					rb, err := New(read.Dataset(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := denseDiff(read, rb); err != nil {
						t.Fatalf("batch %d, read chain: %v", e, err)
					}
					if err := denseDiff(lazy, rb); err != nil {
						t.Fatalf("batch %d, lazy chain: %v", e, err)
					}
					if rng.Intn(2) == 0 {
						if err := viewDiff(read.Dependence(), rb.Dependence()); err != nil {
							t.Fatalf("batch %d, read chain: %v", e, err)
						}
					}
					rebuilt = append(rebuilt, rb)
				}
				for e, rb := range rebuilt {
					hs, err := lazy.AsOf(first + 1 + e)
					if err != nil {
						t.Fatal(err)
					}
					if err := viewDiff(hs.Dependence(), rb.Dependence()); err != nil {
						t.Fatalf("batch %d, lazy chain: %v", e, err)
					}
					assertSessionsEqual(t, hs, rb)
				}
				if n := lazy.HistMaterializations(); n != 0 && start.name != "as-of" {
					t.Fatalf("the lazy chain's epochs were meant to be retained, %d were rebuilt", n)
				}
			})
		}
	}
}

// fileSession writes s as a snapshot file and loads it back.
func fileSession(t *testing.T, s *Session, cfg Config) *Session {
	t.Helper()
	return loadFile(t, snapshotBytes(t, s), cfg)
}

// TestStateViewConcurrentFirstRead has 8 goroutines make their first calls at
// once on a fresh session — a successor, and a freshly loaded session — each
// asking for a view, fusion, the
// accuracies, a pair's posteriors or a successor; run under -race. Every
// result equals a rebuild's.
func TestStateViewConcurrentFirstRead(t *testing.T) {
	cfg := DefaultConfig()
	s, err := New(servingWorld(t, 17), cfg)
	if err != nil {
		t.Fatal(err)
	}
	next, err := s.Append(randomBatch(rand.New(rand.NewSource(3)), s.Dataset(), 0))
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(next.Dataset(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantFuse, err := want.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	batch := randomBatch(rand.New(rand.NewSource(4)), next.Dataset(), 2)
	d2, err := want.Dataset().Append(batch)
	if err != nil {
		t.Fatal(err)
	}
	wantNext, err := New(d2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srcs := want.Dataset().Sources()
	for name, ses := range map[string]*Session{"successor": next, "file": fileSession(t, next, cfg)} {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				switch g % 5 {
				case 0:
					got, err := ses.Fuse()
					if err != nil {
						t.Error(err)
					} else if !reflect.DeepEqual(got.Chosen, wantFuse.Chosen) || !reflect.DeepEqual(got.Relation, wantFuse.Relation) {
						t.Errorf("%s, goroutine %d: fusion differs", name, g)
					}
				case 1:
					if err := viewDiff(ses.Dependence(), want.Dependence()); err != nil {
						t.Errorf("%s, goroutine %d: %v", name, g, err)
					}
				case 2:
					if got := ses.Accuracy(); !reflect.DeepEqual(got, want.Accuracy()) {
						t.Errorf("%s, goroutine %d: accuracies differ", name, g)
					}
				case 3:
					for _, a := range srcs {
						for _, b := range srcs {
							gd, gab, gba := ses.PairProbs(a, b)
							wd, wab, wba := want.PairProbs(a, b)
							if bitsDiff("PairProbs", []float64{gd, gab, gba}, []float64{wd, wab, wba}) != nil {
								t.Errorf("%s, goroutine %d: PairProbs(%s, %s) differs", name, g, a, b)
								return
							}
						}
					}
				case 4:
					got, err := ses.Append(batch)
					if err != nil {
						t.Error(err)
					} else if err := denseDiff(got, wantNext); err != nil {
						t.Errorf("%s, goroutine %d: the successor differs: %v", name, g, err)
					}
				}
			}(g)
		}
		wg.Wait()
		// Each call builds its own view; two are the same to the bit.
		if err := viewDiff(ses.Dependence(), ses.Dependence()); err != nil {
			t.Fatalf("%s: two Dependence calls differ: %v", name, err)
		}
	}
}

// TestNumDependencesMatchesView holds the count off the state's records to
// the view's thresholded list, on a flat session and its successor, at the
// default threshold and at 0 and 1, the thresholds that take every pair and
// only the pairs at exactly 1.
func TestNumDependencesMatchesView(t *testing.T) {
	for _, thr := range []float64{DefaultConfig().Depen.DepThreshold, 0, 1} {
		cfg := DefaultConfig()
		cfg.Depen.DepThreshold = thr
		s, err := New(servingWorld(t, 17), cfg)
		if err != nil {
			t.Fatal(err)
		}
		next, err := s.Append(randomBatch(rand.New(rand.NewSource(3)), s.Dataset(), 1))
		if err != nil {
			t.Fatal(err)
		}
		for name, ses := range map[string]*Session{"flat": s, "successor": next} {
			if got, want := ses.NumDependences(), len(ses.Dependence().Dependences); got != want {
				t.Fatalf("%s, threshold %v: %d dependences counted, the view lists %d", name, thr, got, want)
			} else if thr == 0 && got == 0 {
				t.Fatalf("%s: no pair at threshold 0", name)
			}
		}
	}
}

// TestAccuracyReadsDenseVector: Accuracy on any session — a fresh successor,
// an as-of epoch behind it, and sessions loaded by either path — is its
// dense accuracy vector by name, keyed once per epoch, and it equals the
// view's map to the bit.
func TestAccuracyReadsDenseVector(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetainEpochs = 2
	s, err := New(servingWorld(t, 17), cfg)
	if err != nil {
		t.Fatal(err)
	}
	next, err := s.Append(randomBatch(rand.New(rand.NewSource(3)), s.Dataset(), 1))
	if err != nil {
		t.Fatal(err)
	}
	past, err := next.AsOf(0)
	if err != nil {
		t.Fatal(err)
	}
	// The snapshots are of a rebuild, whose Accuracy nothing has called.
	written, err := New(next.Dataset(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := LoadSnapshot(bytes.NewReader(snapshotBytes(t, written)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, ses := range map[string]*Session{
		"successor": next, "as-of": past, "v1": v1, "file": fileSession(t, written, cfg),
	} {
		got := ses.Accuracy()
		if (name == "v1" || name == "file") && (ses.d == nil || ses.d.Len() != written.d.Len()) {
			t.Fatalf("%s: the load did not build the dataset", name)
		}
		c := ses.d.Compiled()
		for i, a := range ses.st.Accuracy() {
			if g := got[c.Source(i)]; math.Float64bits(g) != math.Float64bits(a) {
				t.Fatalf("%s: accuracy of %s = %v, the state has %v", name, c.Source(i), g, a)
			}
		}
		want := ses.Dependence().Truth.Accuracy
		if len(got) != len(want) || len(got) != len(ses.Dataset().Sources()) {
			t.Fatalf("%s: %d accuracies, the view has %d", name, len(got), len(want))
		}
		for src, w := range want {
			if g, ok := got[src]; !ok || math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: accuracy of %s = %v, the view has %v", name, src, g, w)
			}
		}
		// The map is built once per epoch: a second call allocates nothing.
		if allocs := testing.AllocsPerRun(10, func() { _ = ses.Accuracy() }); allocs != 0 {
			t.Fatalf("%s: a repeated Accuracy() made %.0f allocations, want 0", name, allocs)
		}
	}
}
