package session

import (
	"bytes"
	"errors"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/depen"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/recommend"
	"sourcecurrents/internal/snapio"
	"sourcecurrents/internal/synth"
	"sourcecurrents/internal/truth"
)

func snapshotBytes(t testing.TB, s *Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTripGolden pins the central contract: a loaded snapshot
// is deep-equal to the session it was taken of — discovery result
// (posteriors, accuracies, every pair verdict, directional tables), dataset
// view, and the dense serving tables — and every serving call returns
// bit-identical results.
func TestSnapshotRoundTripGolden(t *testing.T) {
	d := servingWorld(t, 17)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotBytes(t, s)
	got, err := LoadSnapshot(bytes.NewReader(raw), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	if err := viewDiff(got.Dependence(), s.Dependence()); err != nil {
		t.Fatalf("depen.Result differs after snapshot round trip: %v", err)
	}
	if !reflect.DeepEqual(got.Dataset().Claims(), s.Dataset().Claims()) {
		t.Fatal("dataset claims differ after snapshot round trip")
	}
	if !reflect.DeepEqual(got.acc, s.acc) {
		t.Fatal("dense accuracy vector differs after snapshot round trip")
	}
	if !reflect.DeepEqual(got.depTab, s.depTab) {
		t.Fatal("dense dependence table differs after snapshot round trip")
	}

	for _, q := range queries(d) {
		want, err := servedTrace(s, q)
		if err != nil {
			t.Fatal(err)
		}
		have, err := servedTrace(got, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(have, want) {
			t.Fatal("AnswerObjects differs after snapshot round trip")
		}
	}
	wantFuse, err := s.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	haveFuse, err := got.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(haveFuse.Chosen, wantFuse.Chosen) ||
		!reflect.DeepEqual(haveFuse.Relation, wantFuse.Relation) {
		t.Fatal("Fuse differs after snapshot round trip")
	}
	wantTop, err := s.RecommendSources(recommend.DefaultWeights(), 5)
	if err != nil {
		t.Fatal(err)
	}
	haveTop, err := got.RecommendSources(recommend.DefaultWeights(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(haveTop, wantTop) {
		t.Fatal("RecommendSources differs after snapshot round trip")
	}

	// A second encode of the loaded session is byte-identical (canonical).
	if !bytes.Equal(snapshotBytes(t, got), raw) {
		t.Fatal("re-encoded snapshot is not byte-identical")
	}
}

// TestSnapshotRoundTripWithKnownAndSim exercises the inline-value path (a
// Known pin for a value no source asserts) and the callback fingerprint.
func TestSnapshotRoundTripWithKnownAndSim(t *testing.T) {
	d := servingWorld(t, 23)
	cfg := DefaultConfig()
	obj := d.Objects()[0]
	cfg.Depen.Truth.Known = map[model.ObjectID]string{obj: "value-nobody-asserts"}
	s, err := New(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotBytes(t, s)
	got, err := LoadSnapshot(bytes.NewReader(raw), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := viewDiff(got.Dependence(), s.Dependence()); err != nil {
		t.Fatalf("depen.Result differs with Known pin: %v", err)
	}
	if got.Dependence().Truth.Chosen[obj] != "value-nobody-asserts" {
		t.Fatal("inline Known value lost in round trip")
	}

	// Loading under a config without the pin must be refused.
	if _, err := LoadSnapshot(bytes.NewReader(raw), DefaultConfig()); err == nil {
		t.Fatal("expected fingerprint mismatch for missing Known")
	}
	// ... and so must a Known map of the same size with different content
	// (the fingerprint hashes the entries, not just the count).
	cfg2 := DefaultConfig()
	cfg2.Depen.Truth.Known = map[model.ObjectID]string{obj: "a-different-label"}
	if _, err := LoadSnapshot(bytes.NewReader(raw), cfg2); err == nil {
		t.Fatal("expected fingerprint mismatch for changed Known value")
	}
	cfg3 := DefaultConfig()
	cfg3.Depen.Truth.Known = map[model.ObjectID]string{d.Objects()[1]: "value-nobody-asserts"}
	if _, err := LoadSnapshot(bytes.NewReader(raw), cfg3); err == nil {
		t.Fatal("expected fingerprint mismatch for changed Known object")
	}
}

func TestSnapshotFingerprintMismatch(t *testing.T) {
	d := servingWorld(t, 29)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotBytes(t, s)

	cfg := DefaultConfig()
	cfg.Depen.CopyRate = 0.5
	if _, err := LoadSnapshot(bytes.NewReader(raw), cfg); err == nil {
		t.Fatal("expected fingerprint mismatch for CopyRate change")
	}
	cfg = DefaultConfig()
	cfg.Depen.Truth.ValueSim = func(a, b string) float64 { return 0 }
	cfg.Depen.Truth.ValueSimWeight = 0.1
	if _, err := LoadSnapshot(bytes.NewReader(raw), cfg); err == nil {
		t.Fatal("expected fingerprint mismatch for ValueSim change")
	}

	// Serving-only knobs may differ freely.
	cfg = DefaultConfig()
	cfg.Query.MaxSources = 3
	if _, err := LoadSnapshot(bytes.NewReader(raw), cfg); err != nil {
		t.Fatalf("serving-knob change rejected: %v", err)
	}
}

func TestSnapshotCorruption(t *testing.T) {
	d := servingWorld(t, 31)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotBytes(t, s)

	t.Run("wrong magic", func(t *testing.T) {
		mut := append([]byte(nil), raw...)
		copy(mut, "NOTASNAP")
		if _, err := LoadSnapshot(bytes.NewReader(mut), DefaultConfig()); !errors.Is(err, snapio.ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		mut := append([]byte(nil), raw...)
		mut[snapio.MagicLen] = SnapshotVersion + 1
		if _, err := LoadSnapshot(bytes.NewReader(mut), DefaultConfig()); !errors.Is(err, snapio.ErrBadVersion) {
			t.Fatalf("err = %v, want ErrBadVersion", err)
		}
	})
	t.Run("dataset snapshot magic inside session frame", func(t *testing.T) {
		// A dataset snapshot is not a session snapshot.
		var buf bytes.Buffer
		if err := d.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSnapshot(bytes.NewReader(buf.Bytes()), DefaultConfig()); !errors.Is(err, snapio.ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("truncation everywhere", func(t *testing.T) {
		step := 1
		if len(raw) > 4096 {
			step = len(raw) / 4096
		}
		for cut := 0; cut < len(raw); cut += step {
			if _, err := LoadSnapshot(bytes.NewReader(raw[:cut]), DefaultConfig()); err == nil {
				t.Fatalf("cut at %d of %d bytes decoded successfully", cut, len(raw))
			}
		}
	})
	t.Run("payload bit flips", func(t *testing.T) {
		for off := snapio.MagicLen; off < len(raw); off += 97 {
			mut := append([]byte(nil), raw...)
			mut[off] ^= 0x20
			if _, err := LoadSnapshot(bytes.NewReader(mut), DefaultConfig()); err == nil {
				t.Fatalf("bit flip at %d decoded successfully", off)
			}
		}
	})
	t.Run("records no solve writes", func(t *testing.T) {
		for name, view := range corruptViews(t, s) {
			raw := snapshotBytes(t, withView(s, view))
			if _, err := LoadSnapshot(bytes.NewReader(raw), DefaultConfig()); !errors.Is(err, snapio.ErrCorrupt) {
				t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
			}
		}
	})
}

// TestSnapshotLoadBeatsBuild pins what the cold-start win consists of: a
// load runs no discovery — a mapped session decodes no state, a v1 one builds
// no view of the state it decodes — and so allocates under a twentieth of the
// bytes a build from raw claims does (under a fifth for the v1 stream, which
// measures 5.8x). (How much faster that makes it is
// BenchmarkSnapshotLoad against BenchmarkSessionBuild; a wall-clock ratio is
// not something a loaded box, or -race, lets a test assert.)
func TestSnapshotLoadBeatsBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("large scale skipped in short mode")
	}
	// The tiny servingWorld has almost no precompute to skip; the cold-start
	// claim is about serving scale, so measure at the acceptance bar's 500
	// sources (the benchmark world's shape: 500 independents + 50 copiers,
	// 30 objects), where depen.Detect's O(S²·rounds) pairwise scoring
	// dominates construction.
	accs := make([]float64, 500)
	for i := range accs {
		accs[i] = 0.55 + 0.4*float64(i%9)/8
	}
	copiers := make([]synth.CopierSpec, 50)
	for i := range copiers {
		copiers[i] = synth.CopierSpec{MasterIndex: i, CopyRate: 0.8, OwnAcc: 0.6}
	}
	sw, err := synth.GenerateSnapshot(synth.SnapshotConfig{
		Seed:           37,
		NObjects:       30,
		IndependentAcc: accs,
		Copiers:        copiers,
		FalsePool:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := sw.Dataset
	cfg := DefaultConfig()
	s, err := New(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotBytes(t, s)

	allocated := func(run func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// The build re-ingests raw claims, as a server without a snapshot would.
	build := allocated(func() {
		fresh, err := dataset.FromClaims(d.Claims())
		if err != nil {
			t.Fatal(err)
		}
		if built, err := New(fresh, cfg); err != nil {
			t.Fatal(err)
		} else if built.st == nil {
			t.Fatal("a built session carries no solved state")
		}
	})
	// The default format (v2) maps its tables where they lie and decodes no
	// state; the v1 stream decodes the state — every posterior and analysed
	// pair — onto the heap, and builds no view of it.
	var v2 bytes.Buffer
	if err := s.WriteSnapshotV2(&v2); err != nil {
		t.Fatal(err)
	}
	for _, format := range []struct {
		name  string
		under uint64 // the load allocates under build/under bytes
		load  func() (*Session, error)
		built func(*Session) bool // the load did more than decode
	}{
		{"v2", 20, func() (*Session, error) { return LoadSnapshotV2(v2.Bytes(), cfg) },
			func(s *Session) bool { return s.st != nil }},
		{"v1", 5, func() (*Session, error) { return LoadSnapshot(bytes.NewReader(raw), cfg) },
			func(s *Session) bool { return s.dep != nil }},
	} {
		var loaded *Session
		load := allocated(func() {
			if loaded, err = format.load(); err != nil {
				t.Fatal(err)
			}
		})
		if format.built(loaded) {
			t.Fatalf("%s: the load built more than it decodes", format.name)
		}
		if load*format.under > build {
			t.Fatalf("%s: the load allocated %d bytes, NewSession %d: not under 1/%d", format.name, load, build, format.under)
		}
		t.Logf("%s: build %d bytes, load %d bytes (%.1fx)", format.name, build, load, float64(build)/float64(load))
	}
}

// FuzzLoadSnapshot drives the session-snapshot decoder with arbitrary
// bytes: error or success, never a panic.
func FuzzLoadSnapshot(f *testing.F) {
	d := servingWorld(f, 41)
	s, err := New(d, DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte{})
	f.Add([]byte(SnapshotMagic))
	mut := append([]byte(nil), raw...)
	mut[len(mut)/2] ^= 0xFF
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadSnapshot(bytes.NewReader(data), DefaultConfig())
		if err == nil && got == nil {
			t.Fatal("nil session without error")
		}
	})
}

// TestResultFromPartsMatchesDetect double-checks the state a snapshot decodes
// to against a live session's, independent of the framing: the session's
// posteriors and pair verdicts, encoded as both formats store them, decoded
// and handed to depen.StateFromParts with its accuracy vector, give back its
// state — totals table included — and so its view. The Known labels put an
// entry outside its object's groups into the stored posteriors: one by
// inline string, one by the index of a value another object has.
func TestResultFromPartsMatchesDetect(t *testing.T) {
	d := servingWorld(t, 43)
	objs := d.Objects()
	foreign := d.ValuesFor(objs[2])[0].Value
	for _, g := range d.ValuesFor(objs[1]) {
		if g.Value == foreign {
			t.Fatalf("%q is a value of %v too", foreign, objs[1])
		}
	}
	known := DefaultConfig()
	known.Depen.Truth.Known = map[model.ObjectID]string{objs[0]: "value-nobody-asserts", objs[1]: foreign}
	for name, cfg := range map[string]Config{"plain": DefaultConfig(), "known": known} {
		s, err := New(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dep, c := s.Dependence(), d.Compiled()
		var truthEnc, pairsEnc snapio.Writer
		encodeTruthProbs(&truthEnc, c, dep.Truth)
		if err := encodePairs(&pairsEnc, c, dep.AllPairs); err != nil {
			t.Fatal(err)
		}
		st, err := decodeState(snapio.NewReader(truthEnc.Payload()), snapio.NewReader(pairsEnc.Payload()),
			c, cfg.Depen, slices.Clone(s.acc), dep.Rounds, dep.Converged)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(st, s.st) {
			t.Fatalf("%s: the decoded state differs from the solved one", name)
		}
		if err := viewDiff(st.Result(cfg.Depen), dep); err != nil {
			t.Fatalf("%s: the decoded state's view differs: %v", name, err)
		}
	}
}

// corruptViews lists discovery results no solve produces, each of which a
// snapshot written from it stores as it is: pair records out of (a < b)
// form or repeated, and a posterior entry for a value its object neither has
// nor is labelled with. Both loaders must refuse them with ErrCorrupt.
func corruptViews(t *testing.T, s *Session) map[string]*depen.Result {
	t.Helper()
	dep := s.Dependence()
	if len(dep.AllPairs) < 2 {
		t.Fatal("the world has fewer than two analysed pairs")
	}
	with := func(edit func(tr *truth.Result, pairs []depen.Dependence)) *depen.Result {
		tr := *dep.Truth
		tr.Probs = maps.Clone(tr.Probs)
		pairs := slices.Clone(dep.AllPairs)
		edit(&tr, pairs)
		return &depen.Result{Truth: &tr, AllPairs: pairs, Rounds: dep.Rounds, Converged: dep.Converged}
	}
	return map[string]*depen.Result{
		"pair named in reverse": with(func(_ *truth.Result, pairs []depen.Dependence) {
			pairs[0].Pair.A, pairs[0].Pair.B = pairs[0].Pair.B, pairs[0].Pair.A
		}),
		"pair of a source with itself": with(func(_ *truth.Result, pairs []depen.Dependence) {
			pairs[0].Pair.B = pairs[0].Pair.A
		}),
		"pair given twice": with(func(_ *truth.Result, pairs []depen.Dependence) {
			pairs[1] = pairs[0]
		}),
		"posterior of another object's value": with(func(tr *truth.Result, _ []depen.Dependence) {
			objs := s.Dataset().Objects()
			pv := maps.Clone(tr.Probs[objs[0]])
			for _, g := range s.Dataset().ValuesFor(objs[1]) {
				if _, ok := pv[g.Value]; !ok {
					pv[g.Value] = 0.5
					break
				}
			}
			if len(pv) == len(tr.Probs[objs[0]]) {
				t.Fatal("every value of the second object is a value of the first")
			}
			tr.Probs[objs[0]] = pv
		}),
		"posterior of a value nobody asserts": with(func(tr *truth.Result, _ []depen.Dependence) {
			o := s.Dataset().Objects()[0]
			pv := maps.Clone(tr.Probs[o])
			pv["value-nobody-asserts"] = 0.5
			tr.Probs[o] = pv
		}),
	}
}

// withView returns a session over s's state whose Result view is r: what
// the snapshot writers store when handed that view.
func withView(s *Session, r *depen.Result) *Session {
	w := &Session{d: s.d, cfg: s.cfg, st: s.st, acc: s.acc, depTab: s.depTab, dep: r}
	w.depOnce.Do(func() {})
	return w
}
