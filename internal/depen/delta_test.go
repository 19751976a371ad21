package depen

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/raceflag"
	"sourcecurrents/internal/synth"
)

// stateDiff reports the first field in which two states differ: the vectors
// and the totals table as float bit patterns, the pair records byte for byte,
// and how the solve ended.
func stateDiff(got, want *State) error {
	for _, v := range []struct {
		what      string
		got, want []float64
	}{{"acc", got.acc, want.acc}, {"probs", got.probs, want.probs}, {"tot", got.tot, want.tot}} {
		if len(v.got) != len(v.want) {
			return fmt.Errorf("%s: %d entries, want %d", v.what, len(v.got), len(v.want))
		}
		for i := range v.got {
			if math.Float64bits(v.got[i]) != math.Float64bits(v.want[i]) {
				return fmt.Errorf("%s[%d] = %v, want %v", v.what, i, v.got[i], v.want[i])
			}
		}
	}
	if !bytes.Equal(got.PairBytes(), want.PairBytes()) {
		return fmt.Errorf("pairs: %d records differ from the %d solved", len(got.pairs), len(want.pairs))
	}
	if got.rounds != want.rounds || got.converged != want.converged {
		return fmt.Errorf("rounds/converged %d/%v, want %d/%v", got.rounds, got.converged, want.rounds, want.converged)
	}
	return nil
}

// checkDeltaChain solves base, then walks the batches: at every epoch E the
// state of every earlier epoch e0 with the delta since e0 applied must be the
// state Solve reaches at E, to the bit.
func checkDeltaChain(t *testing.T, base *dataset.Dataset, batches [][]model.Claim, cfg Config) {
	t.Helper()
	st, err := Solve(base, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	states := []*State{st}
	cur := base
	for e, batch := range batches {
		if cur, err = cur.Append(batch); err != nil {
			t.Fatal(err)
		}
		want, err := Solve(cur, states[e], cfg)
		if err != nil {
			t.Fatal(err)
		}
		for since, prev := range states {
			dl, err := want.Delta(cur, since)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ApplyDelta(cur, prev, since, dl)
			if err != nil {
				t.Fatalf("epoch %d since %d: %v", e+1, since, err)
			}
			if err := stateDiff(got, want); err != nil {
				t.Fatalf("epoch %d of %d, since %d: applied delta differs from the solve: %v", e+1, len(batches), since, err)
			}
		}
		states = append(states, want)
	}
}

// TestDeltaDifferential holds the applied delta, since every earlier epoch, to
// the solve on every seed of the differential suite's schedules (sources and objects held out of the
// base and introduced mid-log, Known labels, ValueSim), plus a batch that adds
// a source sorting before every other and one that adds a new object.
func TestDeltaDifferential(t *testing.T) {
	seeds := 32
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dc := newDiffCase(t, seed)
			base, err := dataset.FromClaims(dc.base)
			if err != nil {
				t.Fatal(err)
			}
			objs := base.Objects()
			first := make([]model.Claim, 0, len(objs))
			for _, o := range objs {
				first = append(first, model.NewClaim("0-first", o, base.ValuesFor(o)[0].Value))
			}
			srcs := base.Sources()
			newObj := []model.Claim{
				model.NewClaim(srcs[0], model.Obj("zz-new", "v"), "x"),
				model.NewClaim(srcs[len(srcs)-1], model.Obj("zz-new", "v"), "x"),
			}
			checkDeltaChain(t, base, append(dc.batches, first, newObj), dc.cfg)
		})
	}
}

// benchShaped is a world of bench/worlds.go's shape — indep independent
// sources plus a tenth as many copiers, every one claiming every object — and
// a chain of batches over it at two source-major batches (one source revising
// a quarter of its claims) to one object-major (every source on one object).
func benchShaped(t *testing.T, indep, objects, epochs int) (*dataset.Dataset, [][]model.Claim) {
	t.Helper()
	cfg := synth.SnapshotConfig{Seed: 1, NObjects: objects, FalsePool: 20}
	for i := 0; i < indep; i++ {
		cfg.IndependentAcc = append(cfg.IndependentAcc, 0.55+0.04*float64((i*7)%10))
	}
	for i := 0; i < indep/10; i++ {
		cfg.Copiers = append(cfg.Copiers, synth.CopierSpec{MasterIndex: i, CopyRate: 0.8, OwnAcc: 0.7})
	}
	sw, err := synth.GenerateSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := sw.Dataset
	rng := rand.New(rand.NewSource(7))
	srcs, objs := d.Sources(), d.Objects()
	var batches [][]model.Claim
	for e := 0; e < epochs; e++ {
		var b []model.Claim
		if e%3 == 2 {
			o := objs[rng.Intn(len(objs))]
			for _, s := range srcs {
				b = append(b, model.NewClaim(s, o, fmt.Sprintf("V%d", rng.Intn(4))))
			}
		} else {
			s := srcs[rng.Intn(len(srcs))]
			for _, i := range rng.Perm(len(objs))[:len(objs)/4] {
				b = append(b, model.NewClaim(s, objs[i], fmt.Sprintf("V%d", rng.Intn(4))))
			}
		}
		batches = append(batches, b)
	}
	return d, batches
}

// TestDeltaBenchShaped runs the chain on the benchmark's mid (100 x 400) and
// wide (500 x 30) shapes, where most pairs are analysed and an object-major
// batch dirties every one of them.
func TestDeltaBenchShaped(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("minutes under -race; TestDeltaDifferential covers the same code")
	}
	epochs := 12
	if testing.Short() {
		epochs = 3
	}
	for _, shape := range []struct {
		name           string
		indep, objects int
	}{{"mid", 100, 400}, {"wide", 500, 30}} {
		t.Run(shape.name, func(t *testing.T) {
			base, batches := benchShaped(t, shape.indep, shape.objects, epochs)
			checkDeltaChain(t, base, batches, DefaultConfig())
		})
	}
}

// TestApplyDeltaRejects damages a valid delta in each way no solve produces
// one; every damage is an error, and the undamaged delta still applies.
func TestApplyDeltaRejects(t *testing.T) {
	dc := newDiffCase(t, 3)
	base, err := dataset.FromClaims(dc.base)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := Solve(base, nil, dc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One source revises three objects: a few dirty pairs, most kept.
	s := base.Sources()[1]
	var batch []model.Claim
	for _, o := range base.Objects()[:3] {
		batch = append(batch, model.NewClaim(s, o, "revised"))
	}
	d, err := base.Append(batch)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Solve(d, prev, dc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	good, err := st.Delta(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := func(dl Delta) []pairRec {
		return unsafe.Slice((*pairRec)(unsafe.Pointer(&dl.Pairs[0])), len(dl.Pairs)/pairRecBytes)
	}
	if len(recs(good)) < 2 {
		t.Fatalf("the batch dirtied %d pairs; the test needs two", len(recs(good)))
	}
	si, _ := d.Compiled().SourceIndex(s)
	// clone returns the good delta with its slices copied, then damaged.
	clone := func(damage func(*Delta)) Delta {
		dl := good
		dl.Acc = append([]float64(nil), good.Acc...)
		dl.Post = append([]float64(nil), good.Post...)
		dl.Pairs = append([]byte(nil), good.Pairs...)
		damage(&dl)
		return dl
	}
	for _, tc := range []struct {
		name, want string
		dl         Delta
	}{
		{"acc short", "accuracies", clone(func(dl *Delta) { dl.Acc = dl.Acc[1:] })},
		{"acc long", "accuracies", clone(func(dl *Delta) { dl.Acc = append(dl.Acc, 0.5) })},
		{"post short", "posteriors", clone(func(dl *Delta) { dl.Post = dl.Post[1:] })},
		{"post long", "posteriors", clone(func(dl *Delta) { dl.Post = append(dl.Post, 0.5) })},
		{"pairs truncated", "whole number", clone(func(dl *Delta) { dl.Pairs = dl.Pairs[:len(dl.Pairs)-1] })},
		{"pair reversed", "names sources", clone(func(dl *Delta) { r := recs(*dl); r[0].a, r[0].b = r[0].b, r[0].a })},
		{"pair out of range", "names sources", clone(func(dl *Delta) { recs(*dl)[0].b = int32(len(dl.Acc)) })},
		{"pair repeated", "out of order", clone(func(dl *Delta) { r := recs(*dl); r[1] = r[0] })},
		{"pairs swapped", "out of order", clone(func(dl *Delta) { r := recs(*dl); r[0], r[1] = r[1], r[0] })},
		{"pair without a dirty member", "no member", clone(func(dl *Delta) {
			r := recs(*dl)
			for a := int32(0); a < int32(len(dl.Acc)); a++ {
				if a != si && a+1 != si && a+1 < int32(len(dl.Acc)) {
					r[0].a, r[0].b = a, a+1
					dl.Pairs = dl.Pairs[:pairRecBytes]
					return
				}
			}
		})},
		{"no round", "rounds", clone(func(dl *Delta) { dl.Rounds = 0 })},
	} {
		if _, err := ApplyDelta(d, prev, 0, tc.dl); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ApplyDelta = %v, want an error about %q", tc.name, err, tc.want)
		}
	}
	if _, err := ApplyDelta(base, prev, 0, good); err == nil {
		t.Error("a delta applied to a flat dataset")
	}
	for _, since := range []int{-1, 1} {
		if _, err := ApplyDelta(d, prev, since, good); err == nil || !strings.Contains(err.Error(), "since epoch") {
			t.Errorf("since %d: ApplyDelta = %v, want an error about the epoch", since, err)
		}
		if _, err := st.Delta(d, since); err == nil {
			t.Errorf("since %d: a delta was taken", since)
		}
	}
	got, err := ApplyDelta(d, prev, 0, good)
	if err != nil {
		t.Fatal(err)
	}
	if err := stateDiff(got, st); err != nil {
		t.Fatal(err)
	}
}
