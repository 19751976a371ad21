package dataset

import (
	"sourcecurrents/internal/model"
)

// The paper's three worked examples, reproduced verbatim so that tests,
// examples, and the experiment harness all run against exactly the data in
// the paper.

// AffAttr is the attribute used by the researcher-affiliation examples.
const AffAttr = "affiliation"

// Table1 returns the snapshot dataset of Table 1 (researcher affiliations,
// sources S1..S5; S1 is fully accurate, S4 copies S3 exactly, S5 copies S3
// with one change), frozen and ready for solvers.
func Table1() *Dataset {
	rows := []struct {
		entity string
		vals   [5]string // S1..S5
	}{
		{"Suciu", [5]string{"UW", "MSR", "UW", "UW", "UWisc"}},
		{"Halevy", [5]string{"Google", "Google", "UW", "UW", "UW"}},
		{"Balazinska", [5]string{"UW", "UW", "UW", "UW", "UW"}},
		{"Dalvi", [5]string{"Yahoo!", "Yahoo!", "UW", "UW", "UW"}},
		{"Dong", [5]string{"AT&T", "Google", "UW", "UW", "UW"}},
	}
	d := New()
	for _, r := range rows {
		for i, v := range r.vals {
			src := model.SourceID([]string{"S1", "S2", "S3", "S4", "S5"}[i])
			if err := d.Add(model.NewClaim(src, model.Obj(r.entity, AffAttr), v)); err != nil {
				panic(err) // static data; cannot fail
			}
		}
	}
	d.Freeze()
	return d
}

// Table1Truth returns the ground truth of Table 1: S1 provides all true
// values.
func Table1Truth() *model.World {
	w := model.NewWorld()
	w.SetSnapshot(model.Obj("Suciu", AffAttr), "UW")
	w.SetSnapshot(model.Obj("Halevy", AffAttr), "Google")
	w.SetSnapshot(model.Obj("Balazinska", AffAttr), "UW")
	w.SetSnapshot(model.Obj("Dalvi", AffAttr), "Yahoo!")
	w.SetSnapshot(model.Obj("Dong", AffAttr), "AT&T")
	return w
}

// RatingAttr is the attribute used by the movie-rating example.
const RatingAttr = "rating"

// Table2 returns the movie-rating dataset of Table 2 (reviewers R1..R4; R4
// always provides the opposite of R1).
func Table2() *Dataset {
	rows := []struct {
		entity string
		vals   [4]string // R1..R4
	}{
		{"The Pianist", [4]string{"Good", "Neutral", "Bad", "Bad"}},
		{"Into the Wild", [4]string{"Good", "Bad", "Good", "Bad"}},
		{"The Matrix", [4]string{"Bad", "Bad", "Good", "Good"}},
	}
	d := New()
	for _, r := range rows {
		for i, v := range r.vals {
			src := model.SourceID([]string{"R1", "R2", "R3", "R4"}[i])
			if err := d.Add(model.NewClaim(src, model.Obj(r.entity, RatingAttr), v)); err != nil {
				panic(err)
			}
		}
	}
	d.Freeze()
	return d
}

// Table3 returns the temporal dataset of Table 3 (timestamped researcher
// affiliations for sources S1..S3; S1 up-to-date and true since 2002, S2
// independent but sometimes behind, S3 a lazy copier of S1).
func Table3() *Dataset {
	type upd struct {
		t model.Time
		v string
	}
	rows := []struct {
		entity string
		s1     []upd
		s2     []upd
		s3     []upd
	}{
		{"Suciu",
			[]upd{{2002, "UW"}, {2006, "MSR"}, {2007, "UW"}},
			[]upd{{2006, "MSR"}},
			[]upd{{2001, "UW"}, {2003, "UW"}}},
		{"Halevy",
			[]upd{{2002, "UW"}, {2006, "Google"}},
			[]upd{{2006, "Google"}},
			[]upd{{2001, "UW"}, {2003, "UW"}}},
		{"Balazinska",
			[]upd{{2006, "UW"}},
			[]upd{{2006, "UW"}},
			[]upd{{2007, "UW"}}},
		{"Dalvi",
			[]upd{{2002, "UW"}, {2007, "Yahoo!"}},
			[]upd{{2007, "Yahoo!"}},
			[]upd{{2003, "UW"}}},
		{"Dong",
			[]upd{{2002, "UW"}, {2006, "Google"}, {2007, "AT&T"}},
			[]upd{{2001, "UW"}, {2006, "Google"}},
			[]upd{{2003, "UW"}}},
	}
	d := New()
	add := func(src model.SourceID, entity string, us []upd) {
		for _, u := range us {
			c := model.NewTemporalClaim(src, model.Obj(entity, AffAttr), u.v, u.t)
			if err := d.Add(c); err != nil {
				panic(err)
			}
		}
	}
	for _, r := range rows {
		add("S1", r.entity, r.s1)
		add("S2", r.entity, r.s2)
		add("S3", r.entity, r.s3)
	}
	d.Freeze()
	return d
}

// Table3Truth returns the temporal ground truth behind Table 3: S1's trace
// matches the truth ("only S1 provides up-to-date true values since 2002").
// Initial UW periods extend back to 2000 so that the early claims in the
// table (e.g. S2's and S3's UW values stamped 2001) are out-of-date or
// current — never false — exactly the inference Example 3.2 draws.
func Table3Truth() *model.World {
	w := model.NewWorld()
	set := func(entity string, periods ...model.TruthPeriod) {
		w.Set(model.Truth{Object: model.Obj(entity, AffAttr), Periods: periods})
	}
	set("Suciu",
		model.TruthPeriod{Start: 2000, Value: "UW"},
		model.TruthPeriod{Start: 2006, Value: "MSR"},
		model.TruthPeriod{Start: 2007, Value: "UW"})
	set("Halevy",
		model.TruthPeriod{Start: 2000, Value: "UW"},
		model.TruthPeriod{Start: 2006, Value: "Google"})
	set("Balazinska",
		model.TruthPeriod{Start: 2006, Value: "UW"})
	set("Dalvi",
		model.TruthPeriod{Start: 2000, Value: "UW"},
		model.TruthPeriod{Start: 2007, Value: "Yahoo!"})
	set("Dong",
		model.TruthPeriod{Start: 2000, Value: "UW"},
		model.TruthPeriod{Start: 2006, Value: "Google"},
		model.TruthPeriod{Start: 2007, Value: "AT&T"})
	return w
}
