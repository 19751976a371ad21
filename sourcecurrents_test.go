package sourcecurrents_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"sourcecurrents"
)

// buildTable1 assembles the paper's Table 1 through the public API only.
func buildTable1(t testing.TB) *sourcecurrents.Dataset {
	rows := map[string][]string{
		"Suciu":      {"UW", "MSR", "UW", "UW", "UWisc"},
		"Halevy":     {"Google", "Google", "UW", "UW", "UW"},
		"Balazinska": {"UW", "UW", "UW", "UW", "UW"},
		"Dalvi":      {"Yahoo!", "Yahoo!", "UW", "UW", "UW"},
		"Dong":       {"AT&T", "Google", "UW", "UW", "UW"},
	}
	ds := sourcecurrents.NewDataset()
	for entity, vals := range rows {
		for i, v := range vals {
			src := sourcecurrents.SourceID([]string{"S1", "S2", "S3", "S4", "S5"}[i])
			if err := ds.Add(sourcecurrents.NewClaim(src, sourcecurrents.Obj(entity, "affiliation"), v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ds.Freeze()
	return ds
}

func TestPublicAPIVoteAndDetect(t *testing.T) {
	ds := buildTable1(t)
	vote := sourcecurrents.VoteTruth(ds)
	if vote.Chosen[sourcecurrents.Obj("Halevy", "affiliation")] != "UW" {
		t.Fatal("naive voting should fall for the copier bloc")
	}
	cfg := sourcecurrents.DefaultDependenceConfig()
	cfg.Truth.Known = map[sourcecurrents.ObjectID]string{
		sourcecurrents.Obj("Halevy", "affiliation"): "Google",
		sourcecurrents.Obj("Dalvi", "affiliation"):  "Yahoo!",
	}
	res, err := sourcecurrents.DetectDependence(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truth.Chosen[sourcecurrents.Obj("Dong", "affiliation")] != "AT&T" {
		t.Fatal("copy-aware discovery should recover Dong's affiliation")
	}
	if res.DependenceProb("S3", "S4") < 0.9 {
		t.Fatal("copier pair not detected through the facade")
	}
}

func TestPublicAPICSVRoundTrip(t *testing.T) {
	claims := []sourcecurrents.Claim{
		sourcecurrents.NewClaim("S1", sourcecurrents.Obj("a", "x"), "1"),
		sourcecurrents.NewTemporalClaim("S2", sourcecurrents.Obj("a", "x"), "2", 2007),
	}
	var buf bytes.Buffer
	if err := sourcecurrents.WriteClaimsCSV(&buf, claims); err != nil {
		t.Fatal(err)
	}
	back, err := sourcecurrents.ReadClaimsCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[1].Time != 2007 || !back[1].HasTime {
		t.Fatalf("round trip = %+v", back)
	}
	if _, err := sourcecurrents.DatasetFromClaims(back); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIFusionStrategies(t *testing.T) {
	ds := buildTable1(t)
	for _, st := range []sourcecurrents.FusionStrategy{
		sourcecurrents.FuseKeepFirst, sourcecurrents.FuseMajority,
		sourcecurrents.FuseWeighted, sourcecurrents.FuseDependenceAware,
	} {
		cfg := sourcecurrents.DefaultFusionConfig()
		cfg.Strategy = st
		res, err := sourcecurrents.Fuse(ds, cfg)
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if len(res.Chosen) != 5 {
			t.Fatalf("%v fused %d objects", st, len(res.Chosen))
		}
	}
}

func TestPublicAPILinkage(t *testing.T) {
	ds := sourcecurrents.NewDataset()
	o := sourcecurrents.Obj("isbn1", "authors")
	_ = ds.Add(sourcecurrents.NewClaim("B1", o, "Jeffrey Ullman; Jennifer Widom"))
	_ = ds.Add(sourcecurrents.NewClaim("B2", o, "J. Ullman; J. Widom"))
	_ = ds.Add(sourcecurrents.NewClaim("B3", o, "Someone Else"))
	ds.Freeze()
	res, err := sourcecurrents.Link(ds, sourcecurrents.DefaultLinkageConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.ClustersOf(o)); got != 2 {
		t.Fatalf("clusters = %d", got)
	}
}

func TestPublicAPIQueryAndRecommend(t *testing.T) {
	ds := buildTable1(t)
	res, err := sourcecurrents.AnswerQuery(ds, ds.Objects(), sourcecurrents.DefaultQueryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Probed) == 0 || len(res.Final) != 5 {
		t.Fatalf("query result: %d probed, %d answers", len(res.Probed), len(res.Final))
	}
	dres, err := sourcecurrents.DetectDependence(ds, sourcecurrents.DefaultDependenceConfig())
	if err != nil {
		t.Fatal(err)
	}
	profiles := sourcecurrents.BuildSourceProfiles(ds, dres, nil)
	top, err := sourcecurrents.RecommendSources(profiles, sourcecurrents.DefaultTrustWeights(), 3)
	if err != nil || len(top) != 3 {
		t.Fatalf("recommend: %v, %d", err, len(top))
	}
}

func TestPublicAPISession(t *testing.T) {
	ds := buildTable1(t)
	s, err := sourcecurrents.NewSession(ds, sourcecurrents.DefaultSessionConfig())
	if err != nil {
		t.Fatal(err)
	}
	ans, err := s.AnswerObjects(ds.Objects())
	if err != nil {
		t.Fatal(err)
	}
	trace, err := s.TraceObjects(ds.Objects(), s.QueryConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The session's trace is bit-identical to a one-shot AnswerQuery
	// configured with the same discovery result, and its serving call is
	// that trace's ending with no steps.
	oneShot := sourcecurrents.DefaultQueryConfig()
	oneShot.Accuracy = s.Dependence().Truth.Accuracy
	oneShot.Dependence = s.Dependence().DependenceProb
	want, err := sourcecurrents.AnswerQuery(ds, ds.Objects(), oneShot)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trace, want) {
		t.Fatal("session trace differs from one-shot AnswerQuery")
	}
	if ans.Steps != nil || !reflect.DeepEqual(ans.Final, want.Final) || !reflect.DeepEqual(ans.Probed, want.Probed) {
		t.Fatal("session answers are not the ending of the one-shot AnswerQuery trace")
	}
	if _, err := s.Fuse(); err != nil {
		t.Fatal(err)
	}
	top, err := s.RecommendSources(sourcecurrents.DefaultTrustWeights(), 3)
	if err != nil || len(top) != 3 {
		t.Fatalf("session recommend: %v, %d", err, len(top))
	}
}

// TestSessionAmortizesPrecompute pins the serving-layer acceptance bar: 100
// AnswerObjects calls through one Session must deliver at least 5x the
// throughput of per-call answering (which re-derives accuracies and
// dependence each time). The real gap is orders of magnitude — the 5x bar
// leaves room for scheduler noise. Skipped in -short mode.
func TestSessionAmortizesPrecompute(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in short mode")
	}
	ds := benchSnapshotWorld(t, 50, 200)
	// A serving-shaped workload: a slice of the corpus with a probing
	// budget, identical on both paths.
	scfg := sourcecurrents.DefaultSessionConfig()
	scfg.Query.MaxSources = 20
	s, err := sourcecurrents.NewSession(ds, scfg)
	if err != nil {
		t.Fatal(err)
	}
	query := ds.Objects()[:40]

	const sessionCalls = 100
	start := time.Now()
	for i := 0; i < sessionCalls; i++ {
		if _, err := s.AnswerObjects(query); err != nil {
			t.Fatal(err)
		}
	}
	sessionTime := time.Since(start)

	const perCallCalls = 10
	start = time.Now()
	for i := 0; i < perCallCalls; i++ {
		dres, err := sourcecurrents.DetectDependence(ds, sourcecurrents.DefaultDependenceConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := sourcecurrents.DefaultQueryConfig()
		cfg.MaxSources = 20
		cfg.Accuracy = dres.Truth.Accuracy
		cfg.Dependence = dres.DependenceProb
		if _, err := sourcecurrents.AnswerQuery(ds, query, cfg); err != nil {
			t.Fatal(err)
		}
	}
	perCallTime := time.Since(start)

	sessionQPS := sessionCalls / sessionTime.Seconds()
	perCallQPS := perCallCalls / perCallTime.Seconds()
	if sessionQPS < 5*perCallQPS {
		t.Fatalf("session throughput %.1f q/s < 5x per-call %.1f q/s", sessionQPS, perCallQPS)
	}
	t.Logf("session %.0f q/s vs per-call %.1f q/s (%.0fx)", sessionQPS, perCallQPS, sessionQPS/perCallQPS)
}

func TestPublicAPITemporal(t *testing.T) {
	ds := sourcecurrents.NewDataset()
	o := sourcecurrents.Obj("Dong", "affiliation")
	for _, c := range []struct {
		s sourcecurrents.SourceID
		v string
		t sourcecurrents.Time
	}{
		{"S1", "UW", 2002}, {"S1", "Google", 2006}, {"S1", "AT&T", 2007},
		{"S3", "UW", 2003}, {"S3", "UW", 2005},
	} {
		_ = ds.Add(sourcecurrents.NewTemporalClaim(c.s, o, c.v, c.t))
	}
	ds.Freeze()
	w := sourcecurrents.EstimateWorld(ds, 2)
	if _, ok := w.TrueNow(o); !ok {
		t.Fatal("estimated world empty")
	}
	if got := sourcecurrents.ClassifyValue(w, o, "nonsense", 2007); got != sourcecurrents.ClassFalse {
		t.Fatalf("nonsense classified %v", got)
	}
	if _, err := sourcecurrents.DetectTemporalDependence(ds, sourcecurrents.DefaultTemporalConfig()); err != nil {
		t.Fatal(err)
	}
	if reports := sourcecurrents.TemporalMetrics(ds, w); len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
}

func TestPublicAPIDissim(t *testing.T) {
	ds := sourcecurrents.NewDataset()
	for i, movie := range []string{"m1", "m2", "m3", "m4"} {
		o := sourcecurrents.Obj(movie, "rating")
		r1 := []string{"Good", "Good", "Bad", "Good"}[i]
		opp := map[string]string{"Good": "Bad", "Bad": "Good"}
		_ = ds.Add(sourcecurrents.NewClaim("R1", o, r1))
		_ = ds.Add(sourcecurrents.NewClaim("R2", o, r1))
		_ = ds.Add(sourcecurrents.NewClaim("R3", o, opp[r1]))
	}
	ds.Freeze()
	res, err := sourcecurrents.DetectDissimilarity(ds, sourcecurrents.DefaultDissimConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Fatal("no pairs analyzed")
	}
}
