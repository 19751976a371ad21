package session

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/fusion"
	"sourcecurrents/internal/linkage"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/queryans"
	"sourcecurrents/internal/recommend"
	"sourcecurrents/internal/synth"
)

func servingWorld(t testing.TB, seed int64) *dataset.Dataset {
	t.Helper()
	sw, err := synth.GenerateSnapshot(synth.SnapshotConfig{
		Seed:           seed,
		NObjects:       60,
		IndependentAcc: []float64{0.9, 0.8, 0.7, 0.6, 0.85, 0.75},
		Copiers: []synth.CopierSpec{
			{MasterIndex: 0, CopyRate: 0.85, OwnAcc: 0.7},
			{MasterIndex: 2, CopyRate: 0.6, OwnAcc: 0.65},
		},
		FalsePool: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sw.Dataset
}

func queries(d *dataset.Dataset) [][]model.ObjectID {
	objs := d.Objects()
	return [][]model.ObjectID{
		objs,
		objs[:len(objs)/2],
		objs[len(objs)/3:],
		{objs[0], objs[0], objs[5]},
	}
}

// servedTrace answers q through both of s's calls — the serving call and the
// trace behind it — and returns the trace, after checking that the serving
// call is exactly the trace's ending: the same Final and Probed, no Steps.
// Every suite that compares what two sessions answer (incremental == rebuild,
// snapshot == eager, as-of == rebuild-at-e, session == one-shot) compares
// these, so it covers everything either call can return. It reports through
// the error so the race test can call it off the test goroutine.
func servedTrace(s *Session, q []model.ObjectID) (*queryans.Result, error) {
	served, err := s.AnswerObjects(q)
	if err != nil {
		return nil, err
	}
	trace, err := s.TraceObjects(q, s.QueryConfig())
	if err != nil {
		return nil, err
	}
	if served.Steps != nil || !reflect.DeepEqual(served.Final, trace.Final) ||
		!reflect.DeepEqual(served.Probed, trace.Probed) {
		return nil, errors.New("AnswerObjects is not the ending of its own trace")
	}
	return trace, nil
}

// TestSessionAnswerMatchesOneShot pins the amortization contract: a Session
// answering many queries returns traces bit-identical to one-shot
// queryans.AnswerObjects calls configured with the same discovery result
// (which the queryans golden suite ties to the map-based reference path).
func TestSessionAnswerMatchesOneShot(t *testing.T) {
	d := servingWorld(t, 11)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dep := s.Dependence()
	for _, pol := range []queryans.Policy{queryans.GreedyGain, queryans.AccuracyCoverage, queryans.ByID} {
		cfg := DefaultConfig()
		cfg.Query.Policy = pol
		sp, err := New(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		oneShot := queryans.DefaultConfig()
		oneShot.Policy = pol
		oneShot.Accuracy = dep.Truth.Accuracy
		oneShot.Dependence = dep.DependenceProb
		for qi, q := range queries(d) {
			want, err := queryans.AnswerObjects(d, q, oneShot)
			if err != nil {
				t.Fatal(err)
			}
			got, err := servedTrace(sp, q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("policy %v query %d: session answer differs from one-shot", pol, qi)
			}
		}
	}
}

func TestSessionFuseMatchesOneShot(t *testing.T) {
	d := servingWorld(t, 13)
	for _, st := range []fusion.Strategy{fusion.DependenceAware, fusion.Weighted, fusion.Majority, fusion.KeepFirst} {
		cfg := DefaultConfig()
		cfg.Fusion.Strategy = st
		s, err := New(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fusion.Fuse(d, cfg.Fusion)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Fuse()
		if err != nil {
			t.Fatal(err)
		}
		if st == fusion.DependenceAware {
			// The session resolves from its state and builds no view of it.
			if got.Truth != nil || got.Depen != nil {
				t.Fatal("session fuse carries a view of the state")
			}
			want.Truth, want.Depen = nil, nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("strategy %v: session fuse differs from one-shot", st)
		}
		// Repeated calls return equal, independent results.
		again, err := s.Fuse()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("strategy %v: repeated fuse differs", st)
		}
	}
}

func TestSessionRecommendMatchesOneShot(t *testing.T) {
	d := servingWorld(t, 17)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := recommend.DefaultWeights()
	wantProfiles := recommend.BuildProfiles(d, s.Dependence().State(), nil)
	if !reflect.DeepEqual(s.Profiles(), wantProfiles) {
		t.Fatal("session profiles differ from one-shot BuildProfiles")
	}
	want, err := recommend.Top(wantProfiles, w, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.RecommendSources(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("session recommendation differs from one-shot Top")
	}
	if _, err := s.RecommendSources(w, -1); err == nil {
		t.Fatal("negative k accepted")
	}
}

func TestSessionLink(t *testing.T) {
	d := servingWorld(t, 19)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := linkage.Link(d, linkage.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Link(linkage.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("session linkage differs from one-shot Link")
	}
}

// TestSessionParallelismInvariant pins that sessions built at different
// worker counts serve bit-identical results.
func TestSessionParallelismInvariant(t *testing.T) {
	d := servingWorld(t, 23)
	build := func(p int) (*Session, *queryans.Result, *fusion.Result, []recommend.Profile) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
		s, err := New(d, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		ans, err := servedTrace(s, d.Objects())
		if err != nil {
			t.Fatal(err)
		}
		fu, err := s.Fuse()
		if err != nil {
			t.Fatal(err)
		}
		return s, ans, fu, s.Profiles()
	}
	_, ans1, fu1, prof1 := build(1)
	for _, p := range []int{4, 16} {
		_, ans, fu, prof := build(p)
		if !reflect.DeepEqual(ans, ans1) {
			t.Fatalf("answers differ at GOMAXPROCS=%d", p)
		}
		if !reflect.DeepEqual(fu, fu1) {
			t.Fatalf("fusion differs at GOMAXPROCS=%d", p)
		}
		if !reflect.DeepEqual(prof, prof1) {
			t.Fatalf("profiles differ at GOMAXPROCS=%d", p)
		}
	}
}

func TestSessionErrors(t *testing.T) {
	unfrozen := dataset.New()
	_ = unfrozen.Add(model.NewClaim("S1", model.Obj("a", "v"), "1"))
	if _, err := New(unfrozen, DefaultConfig()); err == nil {
		t.Fatal("unfrozen dataset accepted")
	}
	if _, err := New(nil, DefaultConfig()); err == nil {
		t.Fatal("nil dataset accepted")
	}
	empty := dataset.New()
	empty.Freeze()
	if _, err := New(empty, DefaultConfig()); err == nil {
		t.Fatal("empty dataset accepted")
	}
	d := servingWorld(t, 29)
	bad := DefaultConfig()
	bad.Query.CopyRate = 2
	if _, err := New(d, bad); err == nil {
		t.Fatal("invalid query config accepted")
	}
	bad = DefaultConfig()
	bad.Depen.Alpha = -1
	if _, err := New(d, bad); err == nil {
		t.Fatal("invalid depen config accepted")
	}
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AnswerObjects(nil); err == nil {
		t.Fatal("empty query accepted")
	}
}

// TestSessionManyQueriesStayConsistent exercises the serving loop shape: a
// hundred distinct queries against one session, each checked against the
// one-shot path.
func TestSessionManyQueriesStayConsistent(t *testing.T) {
	d := servingWorld(t, 31)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	oneShot := queryans.DefaultConfig()
	oneShot.Accuracy = s.Dependence().Truth.Accuracy
	oneShot.Dependence = s.Dependence().DependenceProb
	objs := d.Objects()
	for i := 0; i < 100; i++ {
		lo := i % len(objs)
		hi := lo + 1 + (i*7)%(len(objs)-lo)
		q := objs[lo:hi]
		got, err := servedTrace(s, q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want, err := queryans.AnswerObjects(d, q, oneShot)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d (%s): session differs from one-shot", i, fmt.Sprintf("%d:%d", lo, hi))
		}
	}
}
