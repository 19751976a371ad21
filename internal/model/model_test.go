package model

import (
	"testing"
	"testing/quick"
)

func TestClaimValidate(t *testing.T) {
	good := NewClaim("S1", Obj("Dong", "affiliation"), "AT&T")
	if err := good.Validate(); err != nil {
		t.Fatalf("valid claim rejected: %v", err)
	}
	bad := good
	bad.Source = ""
	if bad.Validate() == nil {
		t.Fatal("empty source accepted")
	}
	bad = good
	bad.Object.Entity = ""
	if bad.Validate() == nil {
		t.Fatal("empty entity accepted")
	}
	bad = good
	bad.Prob = 1.5
	if bad.Validate() == nil {
		t.Fatal("probability > 1 accepted")
	}
}

func TestClaimString(t *testing.T) {
	c := NewTemporalClaim("S1", Obj("Dong", "affiliation"), "AT&T", 2007)
	if got := c.String(); got == "" {
		t.Fatal("empty String")
	}
	s := NewClaim("S1", Obj("Dong", "affiliation"), "AT&T")
	if s.String() == c.String() {
		t.Fatal("temporal and snapshot render identically")
	}
}

func TestTruthValueAt(t *testing.T) {
	tr := Truth{
		Object: Obj("Dong", "affiliation"),
		Periods: []TruthPeriod{
			{Start: 2002, Value: "UW"},
			{Start: 2006, Value: "Google"},
			{Start: 2007, Value: "AT&T"},
		},
	}
	cases := []struct {
		t    Time
		want string
		ok   bool
	}{
		{2001, "", false},
		{2002, "UW", true},
		{2005, "UW", true},
		{2006, "Google", true},
		{2007, "AT&T", true},
		{2020, "AT&T", true},
	}
	for _, c := range cases {
		got, ok := tr.ValueAt(c.t)
		if got != c.want || ok != c.ok {
			t.Errorf("ValueAt(%d) = %q,%v want %q,%v", c.t, got, ok, c.want, c.ok)
		}
	}
	cur, ok := tr.Current()
	if !ok || cur != "AT&T" {
		t.Fatalf("Current = %q,%v", cur, ok)
	}
}

func TestTruthEverTrue(t *testing.T) {
	tr := Truth{Periods: []TruthPeriod{{Start: 0, Value: "UW"}, {Start: 5, Value: "MSR"}}}
	if !tr.EverTrue("UW") || !tr.EverTrue("MSR") {
		t.Fatal("historical values should be EverTrue")
	}
	if tr.EverTrue("Google") {
		t.Fatal("never-true value reported EverTrue")
	}
}

func TestTruthNormalize(t *testing.T) {
	tr := Truth{Periods: []TruthPeriod{
		{Start: 5, Value: "B"},
		{Start: 0, Value: "A"},
		{Start: 9, Value: "B"}, // duplicate of previous after sorting
	}}
	tr.Normalize()
	if len(tr.Periods) != 2 || tr.Periods[0].Value != "A" || tr.Periods[1].Value != "B" {
		t.Fatalf("Normalize = %+v", tr.Periods)
	}
}

func TestTruthEmpty(t *testing.T) {
	var tr Truth
	if _, ok := tr.Current(); ok {
		t.Fatal("empty truth has no current value")
	}
}

func TestWorld(t *testing.T) {
	w := NewWorld()
	w.SetSnapshot(Obj("Suciu", "affiliation"), "UW")
	w.Set(Truth{
		Object: Obj("Dong", "affiliation"),
		Periods: []TruthPeriod{
			{Start: 2006, Value: "Google"},
			{Start: 2002, Value: "UW"},
		},
	})
	if v, ok := w.TrueNow(Obj("Suciu", "affiliation")); !ok || v != "UW" {
		t.Fatalf("TrueNow snapshot = %q,%v", v, ok)
	}
	if v, ok := w.Truths[Obj("Dong", "affiliation")].ValueAt(2003); !ok || v != "UW" {
		t.Fatalf("ValueAt(2003) = %q,%v", v, ok)
	}
	if _, ok := w.TrueNow(Obj("nobody", "x")); ok {
		t.Fatal("unknown object should miss")
	}
}

func TestSourcePairNormalization(t *testing.T) {
	p := NewSourcePair("S2", "S1")
	if p.A != "S1" || p.B != "S2" {
		t.Fatalf("pair not normalized: %+v", p)
	}
	if NewSourcePair("S1", "S2") != p {
		t.Fatal("pairs should compare equal regardless of order")
	}
	if p.String() != "S1~S2" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestSourcePairSymmetryProperty(t *testing.T) {
	f := func(a, b string) bool {
		return NewSourcePair(SourceID(a), SourceID(b)) == NewSourcePair(SourceID(b), SourceID(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSortHelpers(t *testing.T) {
	objs := []ObjectID{Obj("b", "y"), Obj("a", "z"), Obj("a", "x")}
	SortObjects(objs)
	if objs[0] != Obj("a", "x") || objs[2] != Obj("b", "y") {
		t.Fatalf("SortObjects = %v", objs)
	}
	srcs := []SourceID{"S3", "S1", "S2"}
	SortSources(srcs)
	if srcs[0] != "S1" || srcs[2] != "S3" {
		t.Fatalf("SortSources = %v", srcs)
	}
}
