package dataset

import (
	"bytes"
	"strings"
	"testing"

	"sourcecurrents/internal/model"
)

func TestAddAndFreeze(t *testing.T) {
	d := New()
	if err := d.Add(model.NewClaim("S1", model.Obj("a", "x"), "1")); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(model.Claim{}); err == nil {
		t.Fatal("invalid claim accepted")
	}
	d.Freeze()
	if !d.Frozen() {
		t.Fatal("not frozen")
	}
	if err := d.Add(model.NewClaim("S2", model.Obj("a", "x"), "2")); err == nil {
		t.Fatal("Add after Freeze accepted")
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}
}

func TestTable1Shape(t *testing.T) {
	d := Table1()
	if got := len(d.Sources()); got != 5 {
		t.Fatalf("sources = %d", got)
	}
	if got := len(d.Objects()); got != 5 {
		t.Fatalf("objects = %d", got)
	}
	if d.Len() != 25 {
		t.Fatalf("claims = %d", d.Len())
	}
	v, ok := d.Value("S1", model.Obj("Dong", AffAttr))
	if !ok || v != "AT&T" {
		t.Fatalf("S1 Dong = %q,%v", v, ok)
	}
	v, ok = d.Value("S5", model.Obj("Suciu", AffAttr))
	if !ok || v != "UWisc" {
		t.Fatalf("S5 Suciu = %q,%v", v, ok)
	}
}

func TestTable1TruthMatchesS1(t *testing.T) {
	d := Table1()
	w := Table1Truth()
	for _, o := range d.Objects() {
		want, _ := w.TrueNow(o)
		got, _ := d.Value("S1", o)
		if got != want {
			t.Errorf("S1 %v = %q, truth %q", o, got, want)
		}
	}
}

func TestOverlap(t *testing.T) {
	d := Table1()
	ov := d.OverlapOf("S3", "S4") // S4 exact copy of S3
	if len(ov.Objects) != 5 || ov.Same != 5 {
		t.Fatalf("S3~S4 overlap = %d shared, %d same", len(ov.Objects), ov.Same)
	}
	ov = d.OverlapOf("S3", "S5") // S5 changed Suciu
	if len(ov.Objects) != 5 || ov.Same != 4 {
		t.Fatalf("S3~S5 overlap = %d shared, %d same", len(ov.Objects), ov.Same)
	}
	// Symmetry.
	ba := d.OverlapOf("S4", "S3")
	if ba.Same != 5 || len(ba.Objects) != 5 {
		t.Fatal("overlap not symmetric")
	}
}

func TestPairsThreshold(t *testing.T) {
	d := Table1()
	if got := len(d.Pairs(5)); got != 10 { // C(5,2), all share 5 objects
		t.Fatalf("Pairs(5) = %d", got)
	}
	if got := len(d.Pairs(6)); got != 0 {
		t.Fatalf("Pairs(6) = %d", got)
	}
}

func TestValuesFor(t *testing.T) {
	d := Table1()
	groups := d.ValuesFor(model.Obj("Dong", AffAttr))
	if len(groups) != 3 {
		t.Fatalf("Dong value groups = %d: %v", len(groups), groups)
	}
	// Sorted by value: AT&T, Google, UW.
	if groups[0].Value != "AT&T" || len(groups[0].Sources) != 1 {
		t.Fatalf("group0 = %+v", groups[0])
	}
	if groups[2].Value != "UW" || len(groups[2].Sources) != 3 {
		t.Fatalf("group2 = %+v", groups[2])
	}
}

func TestUpdateTraceOrder(t *testing.T) {
	d := Table3()
	trace := d.UpdateTrace("S1")
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].Time < trace[i-1].Time {
			t.Fatalf("trace out of order at %d", i)
		}
	}
}

func TestTimeRange(t *testing.T) {
	d := Table3()
	lo, hi, ok := d.TimeRange()
	if !ok || lo != 2001 || hi != 2007 {
		t.Fatalf("TimeRange = %d..%d,%v", lo, hi, ok)
	}
	s := Table1()
	if _, _, ok := s.TimeRange(); ok {
		t.Fatal("snapshot dataset should have no time range")
	}
}

func TestTable3TruthConsistency(t *testing.T) {
	w := Table3Truth()
	v, ok := w.Truths[model.Obj("Suciu", AffAttr)].ValueAt(2006)
	if !ok || v != "MSR" {
		t.Fatalf("Suciu @2006 = %q,%v", v, ok)
	}
	v, _ = w.TrueNow(model.Obj("Suciu", AffAttr))
	if v != "UW" {
		t.Fatalf("Suciu now = %q", v)
	}
	// Outdated-vs-false distinction: UW was true for Dong in the past.
	tr := w.Truths[model.Obj("Dong", AffAttr)]
	if !tr.EverTrue("UW") || tr.EverTrue("MSR") {
		t.Fatal("EverTrue misclassifies Dong history")
	}
}

func TestTable2Shape(t *testing.T) {
	d := Table2()
	if len(d.Sources()) != 4 || len(d.Objects()) != 3 {
		t.Fatalf("table2 = %d sources, %d objects", len(d.Sources()), len(d.Objects()))
	}
	v, _ := d.Value("R4", model.Obj("The Pianist", RatingAttr))
	if v != "Bad" {
		t.Fatalf("R4 Pianist = %q", v)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig := Table3().Claims()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("round trip %d -> %d claims", len(orig), len(back))
	}
	for i := range orig {
		if back[i] != orig[i] {
			t.Fatalf("claim %d changed: %v -> %v", i, orig[i], back[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a,b,c\n")); err == nil {
		t.Fatal("3-field row accepted")
	}
	if _, err := ReadCSV(strings.NewReader("S1,e,a,v,notatime\n")); err == nil {
		t.Fatal("bad time accepted")
	}
	if _, err := ReadCSV(strings.NewReader("S1,e,a,v,5,notaprob\n")); err == nil {
		t.Fatal("bad prob accepted")
	}
	if _, err := ReadCSV(strings.NewReader("S1,e,a,v,5,2.0\n")); err == nil {
		t.Fatal("out-of-range prob accepted")
	}
	cs, err := ReadCSV(strings.NewReader("source,entity,attribute,value,time,prob\nS1,e,a,v,,\n"))
	if err != nil || len(cs) != 1 {
		t.Fatalf("header handling: %v, %d claims", err, len(cs))
	}
	if cs[0].HasTime || cs[0].Prob != 1 {
		t.Fatalf("defaults wrong: %+v", cs[0])
	}
}

func TestFromClaims(t *testing.T) {
	d, err := FromClaims([]model.Claim{model.NewClaim("S1", model.Obj("a", "x"), "1")})
	if err != nil || !d.Frozen() || d.Len() != 1 {
		t.Fatalf("FromClaims: %v", err)
	}
	if _, err := FromClaims([]model.Claim{{}}); err == nil {
		t.Fatal("invalid claim accepted")
	}
}

func TestSnapshotLatestWinsWithinSource(t *testing.T) {
	d := New()
	_ = d.Add(model.NewTemporalClaim("S1", model.Obj("a", "x"), "old", 1))
	_ = d.Add(model.NewTemporalClaim("S1", model.Obj("a", "x"), "new", 5))
	d.Freeze()
	v, _ := d.Value("S1", model.Obj("a", "x"))
	if v != "new" {
		t.Fatalf("snapshot view = %q, want latest", v)
	}
	groups := d.ValuesFor(model.Obj("a", "x"))
	if len(groups) != 1 || groups[0].Value != "new" {
		t.Fatalf("ValuesFor should only count current values: %v", groups)
	}
}
