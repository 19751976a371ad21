package recommend

import (
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/depen"
	"sourcecurrents/internal/dissim"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/temporal"
)

func TestWeightsValidate(t *testing.T) {
	if err := DefaultWeights().Validate(); err != nil {
		t.Fatal(err)
	}
	if (Weights{}).Validate() == nil {
		t.Fatal("zero weights accepted")
	}
	if (Weights{Accuracy: -1, Coverage: 2}).Validate() == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestRankOrdersByTrust(t *testing.T) {
	profiles := []Profile{
		{Source: "LOW", Accuracy: 0.3, Coverage: 0.3, Freshness: 0.3, Independence: 0.3},
		{Source: "HIGH", Accuracy: 0.9, Coverage: 0.9, Freshness: 0.9, Independence: 0.9},
		{Source: "MID", Accuracy: 0.6, Coverage: 0.6, Freshness: 0.6, Independence: 0.6},
	}
	ranked, err := Rank(profiles, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Source != "HIGH" || ranked[2].Source != "LOW" {
		t.Fatalf("rank order = %v %v %v", ranked[0].Source, ranked[1].Source, ranked[2].Source)
	}
	if ranked[0].Trust <= ranked[1].Trust {
		t.Fatal("trust not decreasing")
	}
	// Ties break by source id for determinism.
	tied := []Profile{{Source: "B"}, {Source: "A"}}
	r2, _ := Rank(tied, DefaultWeights())
	if r2[0].Source != "A" {
		t.Fatal("tie break wrong")
	}
}

func TestIndependencePenalizesCopier(t *testing.T) {
	// Table 1 with labels: the copiers S4/S5 get low independence and drop
	// below S1 in the ranking even though their raw accuracy (agreement
	// with the majority) is inflated.
	d := dataset.Table1()
	cfg := depen.DefaultConfig()
	cfg.Truth.Known = map[model.ObjectID]string{
		model.Obj("Halevy", dataset.AffAttr): "Google",
		model.Obj("Dalvi", dataset.AffAttr):  "Yahoo!",
	}
	dr, err := depen.Detect(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	profiles := BuildProfiles(d, dr.State(), nil)
	byID := map[model.SourceID]Profile{}
	for _, p := range profiles {
		byID[p.Source] = p
	}
	if byID["S4"].Independence >= byID["S1"].Independence {
		t.Fatalf("copier independence %v should be below independent source %v",
			byID["S4"].Independence, byID["S1"].Independence)
	}
	ranked, _ := Rank(profiles, DefaultWeights())
	if ranked[0].Source != "S1" {
		t.Fatalf("top recommendation = %v, want S1", ranked[0].Source)
	}
}

func TestBuildProfilesWithTemporalReports(t *testing.T) {
	d := dataset.Table3()
	reports := temporal.ComputeMetrics(d, dataset.Table3Truth())
	profiles := BuildProfiles(d, nil, reports)
	byID := map[model.SourceID]Profile{}
	for _, p := range profiles {
		byID[p.Source] = p
	}
	// S1 is perfectly fresh and covering; S3 is the lazy copier.
	if byID["S1"].Freshness <= byID["S3"].Freshness {
		t.Fatalf("freshness: S1=%v S3=%v", byID["S1"].Freshness, byID["S3"].Freshness)
	}
	if byID["S1"].Coverage <= byID["S3"].Coverage {
		t.Fatalf("coverage: S1=%v S3=%v", byID["S1"].Coverage, byID["S3"].Coverage)
	}
}

func TestTop(t *testing.T) {
	profiles := []Profile{{Source: "A", Accuracy: 0.9}, {Source: "B", Accuracy: 0.5}}
	top, err := Top(profiles, DefaultWeights(), 1)
	if err != nil || len(top) != 1 || top[0].Source != "A" {
		t.Fatalf("Top = %v, %v", top, err)
	}
	all, _ := Top(profiles, DefaultWeights(), 10)
	if len(all) != 2 {
		t.Fatal("k beyond len should clamp")
	}
	if _, err := Top(profiles, Weights{}, 1); err == nil {
		t.Fatal("invalid weights accepted")
	}
}

func TestTopDiverseIncludesDissenter(t *testing.T) {
	d := dataset.Table2()
	diss, err := dissim.Detect(d, dissim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	profiles := []Profile{
		{Source: "R1", Accuracy: 0.9, Coverage: 1, Freshness: 0.5, Independence: 1},
		{Source: "R2", Accuracy: 0.8, Coverage: 1, Freshness: 0.5, Independence: 1},
		{Source: "R3", Accuracy: 0.7, Coverage: 1, Freshness: 0.5, Independence: 1},
		{Source: "R4", Accuracy: 0.3, Coverage: 1, Freshness: 0.5, Independence: 0.2},
	}
	picks, err := TopDiverse(profiles, DefaultWeights(), diss, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(picks) != 3 {
		t.Fatalf("picks = %+v", picks)
	}
	last := picks[2]
	if last.Reason != "dissenting" || last.Profile.Source != "R4" || last.DissentsFrom != "R1" {
		t.Fatalf("dissenting pick = %+v", last)
	}
	// Without a dissim result, only trusted picks.
	plain, _ := TopDiverse(profiles, DefaultWeights(), nil, 2, 1)
	if len(plain) != 2 {
		t.Fatalf("plain picks = %d", len(plain))
	}
}

func TestNegativeCountsRejected(t *testing.T) {
	profiles := []Profile{{Source: "S1", Accuracy: 0.9, Coverage: 1, Freshness: 0.5, Independence: 1}}
	if _, err := Top(profiles, DefaultWeights(), -1); err == nil {
		t.Fatal("negative k accepted by Top")
	}
	if _, err := TopDiverse(profiles, DefaultWeights(), nil, 1, -1); err == nil {
		t.Fatal("negative extraDissent accepted by TopDiverse")
	}
}
