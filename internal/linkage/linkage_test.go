package linkage

import (
	"fmt"
	"testing"
	"testing/quick"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
)

func bookObj(isbn string) model.ObjectID { return model.Obj(isbn, "authors") }

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mut := range []func(*Config){
		func(c *Config) { c.Sim = nil },
		func(c *Config) { c.MatchThreshold = 0 },
		func(c *Config) { c.MatchThreshold = 1.5 },
		func(c *Config) { c.MinAltSupport = 0 },
	} {
		c := DefaultConfig()
		mut(&c)
		if c.Validate() == nil {
			t.Fatal("invalid config accepted")
		}
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(5)
	uf.union(0, 1)
	uf.union(3, 4)
	if uf.find(0) != uf.find(1) || uf.find(3) != uf.find(4) {
		t.Fatal("union failed")
	}
	if uf.find(0) == uf.find(3) {
		t.Fatal("disjoint sets merged")
	}
	uf.union(1, 3)
	if uf.find(0) != uf.find(4) {
		t.Fatal("transitive union failed")
	}
	// Idempotence property.
	f := func(a, b uint8) bool {
		uf := newUnionFind(16)
		x, y := int(a%16), int(b%16)
		uf.union(x, y)
		r1 := uf.find(x)
		uf.union(x, y)
		return uf.find(x) == r1 && uf.find(y) == r1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkRequiresFrozen(t *testing.T) {
	d := dataset.New()
	_ = d.Add(model.NewClaim("B1", bookObj("i1"), "J. Ullman"))
	if _, err := Link(d, DefaultConfig()); err == nil {
		t.Fatal("unfrozen dataset accepted")
	}
}

func TestLinkMergesAuthorListVariants(t *testing.T) {
	d := dataset.New()
	o := bookObj("isbn1")
	// Five stores, three surface forms of the same author list, plus a
	// genuinely different (wrong) author.
	_ = d.Add(model.NewClaim("B1", o, "Hector Garcia-Molina; Jeffrey Ullman; Jennifer Widom"))
	_ = d.Add(model.NewClaim("B2", o, "H. Garcia-Molina; J. Ullman; J. Widom"))
	_ = d.Add(model.NewClaim("B3", o, "J. Widom; H. Garcia-Molina; J. Ullman")) // reordered
	_ = d.Add(model.NewClaim("B4", o, "Hector Garcia-Molina; Jeffrey Ullman; Jennifer Widom"))
	_ = d.Add(model.NewClaim("B5", o, "Donald Knuth")) // different value entirely
	d.Freeze()
	res, err := Link(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	clusters := res.ClustersOf(o)
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d: %+v", len(clusters), clusters)
	}
	top := clusters[0]
	if top.Support != 4 {
		t.Fatalf("top cluster support = %d", top.Support)
	}
	// Canonical should be the fully spelled form (max support, longest).
	if top.Canonical != "Hector Garcia-Molina; Jeffrey Ullman; Jennifer Widom" {
		t.Fatalf("canonical = %q", top.Canonical)
	}
	// Rewritten dataset: B2's claim now carries the canonical value.
	v, _ := res.Rewritten.Value("B2", o)
	if v != top.Canonical {
		t.Fatalf("rewritten B2 = %q", v)
	}
	// After rewriting, voting sees 4 votes for one value.
	groups := res.Rewritten.ValuesFor(o)
	if len(groups) != 2 {
		t.Fatalf("rewritten groups = %+v", groups)
	}
}

func TestWrongValueVsAlternativeRepresentation(t *testing.T) {
	// The §4 challenge: "Luna Dong" is an alternative representation of
	// "Xin Dong" (both well supported), "Xing Dong" is a wrong value (one
	// straggler). String distance alone would order them the other way.
	d := dataset.New()
	o := model.Obj("dong-paper", "author")
	for i := 0; i < 4; i++ {
		_ = d.Add(model.NewClaim(model.SourceID(fmt.Sprintf("A%d", i)), o, "Xin Dong"))
	}
	for i := 0; i < 3; i++ {
		_ = d.Add(model.NewClaim(model.SourceID(fmt.Sprintf("B%d", i)), o, "Luna Dong"))
	}
	_ = d.Add(model.NewClaim("C0", o, "Xing Dong"))
	d.Freeze()
	cfg := DefaultConfig()
	cfg.Sim = func(a, b string) float64 { return nameSimForTest(a, b) }
	cfg.MatchThreshold = 0.7
	res, err := Link(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All three forms land in one cluster (all are Dongs), but support
	// classifies them differently: Xin Dong is canonical, Luna Dong an
	// alternative representation of it, Xing Dong a wrong value.
	clusters := res.ClustersOf(o)
	if len(clusters) != 1 || clusters[0].Canonical != "Xin Dong" {
		t.Fatalf("clusters = %+v", clusters)
	}
	if got := res.CanonicalOf[o]["Luna Dong"]; got != "Xin Dong" {
		t.Errorf("Luna Dong links to %q", got)
	}
	if got := clusters[0].WrongValueForms; len(got) != 1 || got[0] != "Xing Dong" {
		t.Errorf("wrong-value forms = %q, want [Xing Dong]", got)
	}
	if _, ok := res.CanonicalOf[o]["Nobody"]; ok {
		t.Error("an unseen form has a canonical")
	}
}

// nameSimForTest links any two names with the same Soundex-ish family
// (last token), which deliberately over-links so support must disambiguate.
func nameSimForTest(a, b string) float64 {
	fa := lastToken(a)
	fb := lastToken(b)
	if fa == fb {
		return 1
	}
	return 0
}

func lastToken(s string) string {
	last := ""
	cur := ""
	for _, r := range s + " " {
		if r == ' ' {
			if cur != "" {
				last = cur
			}
			cur = ""
			continue
		}
		cur += string(r)
	}
	return last
}

func TestValuesForDifferentObjectsNeverLink(t *testing.T) {
	d := dataset.New()
	_ = d.Add(model.NewClaim("S1", bookObj("i1"), "Same Author"))
	_ = d.Add(model.NewClaim("S2", bookObj("i2"), "Same Author"))
	d.Freeze()
	res, err := Link(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("cross-object clustering: %+v", res.Clusters)
	}
}

func TestVariantsOfCountsSurfaceForms(t *testing.T) {
	d := dataset.New()
	o := bookObj("i1")
	_ = d.Add(model.NewClaim("S1", o, "Joshua Bloch"))
	_ = d.Add(model.NewClaim("S2", o, "J. Bloch"))
	_ = d.Add(model.NewClaim("S3", o, "Someone Else"))
	d.Freeze()
	res, err := Link(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.VariantsOf(o); got != 3 {
		t.Fatalf("VariantsOf = %d, want 3 raw forms", got)
	}
}

func TestBlockingLimitsComparisons(t *testing.T) {
	// With a blocking key on the first letter, "Alice" and "alice" (same
	// block after folding) link; "Bob" never gets compared to them.
	d := dataset.New()
	o := model.Obj("e", "name")
	_ = d.Add(model.NewClaim("S1", o, "Alice Smith"))
	_ = d.Add(model.NewClaim("S2", o, "alice smith"))
	_ = d.Add(model.NewClaim("S3", o, "Bob Smith"))
	d.Freeze()
	cfg := DefaultConfig()
	cfg.Sim = func(a, b string) float64 { return 1 } // would link everything
	cfg.BlockKey = func(v string) string {
		if v == "" {
			return ""
		}
		c := v[0]
		if c >= 'a' && c <= 'z' {
			c -= 32
		}
		return string(c)
	}
	res, err := Link(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clusters := res.ClustersOf(o)
	if len(clusters) != 2 {
		t.Fatalf("blocking failed: %+v", clusters)
	}
}

func TestLinkImprovesTruthDiscovery(t *testing.T) {
	// Before linkage, format fragmentation splits the true value's votes;
	// after linkage the consolidated cluster outvotes the wrong value.
	d := dataset.New()
	o := bookObj("i9")
	_ = d.Add(model.NewClaim("S1", o, "Jeffrey D. Ullman"))
	_ = d.Add(model.NewClaim("S2", o, "J. Ullman"))
	_ = d.Add(model.NewClaim("S3", o, "Ullman, Jeffrey"))
	_ = d.Add(model.NewClaim("S4", o, "John Wrongman"))
	_ = d.Add(model.NewClaim("S5", o, "John Wrongman"))
	d.Freeze()
	// Naive voting on raw forms: Wrongman wins 2 vs 1/1/1.
	rawGroups := d.ValuesFor(o)
	maxRaw := 0
	for _, g := range rawGroups {
		if len(g.Sources) > maxRaw {
			maxRaw = len(g.Sources)
		}
	}
	if maxRaw != 2 {
		t.Fatalf("raw max support = %d", maxRaw)
	}
	res, err := Link(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	clusters := res.ClustersOf(o)
	if len(clusters) != 2 {
		t.Fatalf("clusters = %+v", clusters)
	}
	if clusters[0].Support != 3 {
		t.Fatalf("linked Ullman support = %d, want 3", clusters[0].Support)
	}
}
