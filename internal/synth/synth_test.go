package synth

import (
	"math/rand"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/strsim"
)

func TestBookConfigValidate(t *testing.T) {
	if err := DefaultBookConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mut := range []func(*BookConfig){
		func(c *BookConfig) { c.NStores = 1 },
		func(c *BookConfig) { c.MaxPerStore = 0 },
		func(c *BookConfig) { c.MaxPerStore = c.NBooks + 1 },
		func(c *BookConfig) { c.DepPairTarget = -1 },
		func(c *BookConfig) { c.MinSharedForDep = 0 },
		func(c *BookConfig) { c.CopyRate = 1 },
		func(c *BookConfig) { c.ErrorPoolSize = 0 },
		func(c *BookConfig) { c.MinAccuracy = 0.95 },
	} {
		c := DefaultBookConfig()
		mut(&c)
		if c.Validate() == nil {
			t.Fatal("invalid config accepted")
		}
	}
}

// smallBookConfig keeps unit tests fast; the full-scale corpus is exercised
// by EX4 and the benchmarks.
func smallBookConfig() BookConfig {
	cfg := DefaultBookConfig()
	cfg.NBooks = 120
	cfg.NStores = 60
	cfg.NListings = 1800
	cfg.MaxPerStore = 100
	cfg.DepPairTarget = 12
	return cfg
}

func TestGenerateBooksPopulationTargets(t *testing.T) {
	cfg := smallBookConfig()
	corpus, err := GenerateBooks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus.Books) != cfg.NBooks {
		t.Fatalf("books = %d", len(corpus.Books))
	}
	if len(corpus.Stores) != cfg.NStores {
		t.Fatalf("stores = %d", len(corpus.Stores))
	}
	if corpus.Listings != cfg.NListings {
		t.Fatalf("listings = %d, want %d", corpus.Listings, cfg.NListings)
	}
	if len(corpus.DependentPairs) != cfg.DepPairTarget {
		t.Fatalf("dependent pairs = %d, want %d", len(corpus.DependentPairs), cfg.DepPairTarget)
	}
	// Catalog sizes: min 1, max = MaxPerStore.
	sizes := map[model.SourceID]int{}
	for _, s := range corpus.Stores {
		for _, o := range corpus.Dataset.ObjectsOf(s) {
			if o.Attribute == AuthorsAttr {
				sizes[s]++
			}
		}
	}
	minS, maxS := cfg.NBooks+1, 0
	for _, n := range sizes {
		if n < minS {
			minS = n
		}
		if n > maxS {
			maxS = n
		}
	}
	if minS < 1 || maxS != cfg.MaxPerStore {
		t.Fatalf("catalog sizes: min=%d max=%d (want max=%d)", minS, maxS, cfg.MaxPerStore)
	}
}

func TestGenerateBooksDependentPairsShareEnough(t *testing.T) {
	corpus, err := GenerateBooks(smallBookConfig())
	if err != nil {
		t.Fatal(err)
	}
	authors, err := corpus.AuthorsDataset()
	if err != nil {
		t.Fatal(err)
	}
	for pair := range corpus.DependentPairs {
		ov := authors.OverlapOf(pair.A, pair.B)
		if len(ov.Objects) < corpus.Config.MinSharedForDep {
			t.Errorf("planted pair %v shares only %d books", pair, len(ov.Objects))
		}
	}
}

func TestGenerateBooksCopierReplication(t *testing.T) {
	corpus, err := GenerateBooks(smallBookConfig())
	if err != nil {
		t.Fatal(err)
	}
	authors, _ := corpus.AuthorsDataset()
	// Each copier must agree verbatim with its master on most shared books.
	for copier, master := range corpus.MasterOf {
		ov := authors.OverlapOf(copier, master)
		if len(ov.Objects) == 0 {
			t.Fatalf("copier %v shares nothing with master %v", copier, master)
		}
		agree := float64(ov.Same) / float64(len(ov.Objects))
		if agree < 0.6 {
			t.Errorf("copier %v agrees with master on %.0f%% of shared books", copier, 100*agree)
		}
	}
}

func TestGenerateBooksVariantStatistics(t *testing.T) {
	corpus, err := GenerateBooks(smallBookConfig())
	if err != nil {
		t.Fatal(err)
	}
	authors, _ := corpus.AuthorsDataset()
	// Variants per book: the raw surface-form count must span from 1 to
	// many, with a small average — the Example 4.1 dirtiness shape.
	var min, max, sum, n int
	min = 1 << 30
	for _, o := range authors.Objects() {
		v := len(authors.ValuesFor(o))
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
		n++
	}
	// The small test config is dense (every book gets several listings);
	// the full-scale corpus reaches min = 1 and is asserted by EX4.
	if min > 2 {
		t.Errorf("min variants = %d, want <= 2", min)
	}
	if max < 5 {
		t.Errorf("max variants = %d, want a dirty popular book", max)
	}
	mean := float64(sum) / float64(n)
	if mean < 1.5 || mean > 8 {
		t.Errorf("mean variants = %.2f, want a small-single-digit mean", mean)
	}
}

func TestGenerateBooksAccuracySpread(t *testing.T) {
	corpus, err := GenerateBooks(smallBookConfig())
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi float64 = 2, -1
	for _, a := range corpus.StoreAccuracy {
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	if lo != corpus.Config.MinAccuracy || hi != corpus.Config.MaxAccuracy {
		t.Fatalf("accuracy range [%v, %v], want [%v, %v]",
			lo, hi, corpus.Config.MinAccuracy, corpus.Config.MaxAccuracy)
	}
}

func TestGenerateBooksDeterministic(t *testing.T) {
	a, err := GenerateBooks(smallBookConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := GenerateBooks(smallBookConfig())
	if a.Listings != b.Listings || len(a.DependentPairs) != len(b.DependentPairs) {
		t.Fatal("corpus not deterministic")
	}
	ca, cb := a.Dataset.Claims(), b.Dataset.Claims()
	if len(ca) != len(cb) {
		t.Fatal("claim counts differ")
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("claim %d differs: %v vs %v", i, ca[i], cb[i])
		}
	}
}

func TestSampleAccuracyMatchesPlanted(t *testing.T) {
	corpus, err := GenerateBooks(smallBookConfig())
	if err != nil {
		t.Fatal(err)
	}
	same := func(listed, truth string) bool {
		return strsim.AuthorListSim(
			strsim.ParseAuthorList(listed), strsim.ParseAuthorList(truth)) > 0.9
	}
	// Independent stores' sampled accuracy should track their planted
	// accuracy; check correlation over stores with enough books.
	var planted, sampled []float64
	for _, s := range corpus.Stores {
		if _, isCopier := corpus.MasterOf[s]; isCopier {
			continue
		}
		objs := 0
		for _, o := range corpus.Dataset.ObjectsOf(s) {
			if o.Attribute == AuthorsAttr {
				objs++
			}
		}
		if objs < 20 {
			continue
		}
		planted = append(planted, corpus.StoreAccuracy[s])
		sampled = append(sampled, sampleAccuracy(corpus, s, 100, same))
	}
	if len(planted) < 5 {
		t.Skip("too few large stores in the small config")
	}
	var num, da, db float64
	ma, mb := mean(planted), mean(sampled)
	for i := range planted {
		num += (planted[i] - ma) * (sampled[i] - mb)
		da += (planted[i] - ma) * (planted[i] - ma)
		db += (sampled[i] - mb) * (sampled[i] - mb)
	}
	if da == 0 || db == 0 {
		t.Fatal("degenerate accuracy spread")
	}
	if r := num / (sqrt(da) * sqrt(db)); r < 0.8 {
		t.Fatalf("sampled accuracy correlates %v with planted, want >= 0.8", r)
	}
}

// sampleAccuracy estimates a store's author-list accuracy on a sample of
// its books (Example 4.1 samples 100 books): the fraction of its listings
// whose parsed author list matches the truth up to formatting.
func sampleAccuracy(c *BookCorpus, s model.SourceID, sample int,
	same func(listed, truth string) bool) float64 {
	objs := []model.ObjectID{}
	for _, o := range c.Dataset.ObjectsOf(s) {
		if o.Attribute == AuthorsAttr {
			objs = append(objs, o)
		}
	}
	if len(objs) == 0 {
		return 0
	}
	if sample > 0 && sample < len(objs) {
		objs = objs[:sample]
	}
	var right int
	for _, o := range objs {
		v, _ := c.Dataset.Value(s, o)
		truth, _ := c.World.TrueNow(o)
		if same(v, truth) {
			right++
		}
	}
	return float64(right) / float64(len(objs))
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func TestPlanGroupsExactPairCount(t *testing.T) {
	for _, target := range []int{0, 1, 5, 12, 100, 471} {
		groups := planGroups(target)
		var pairs int
		for _, g := range groups {
			pairs += g * (g - 1) / 2
		}
		if pairs != target {
			t.Errorf("planGroups(%d) yields %d pairs", target, pairs)
		}
	}
}

func TestSizesForInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sizes := sizesFor(rng, 100, 3000, 500)
	var sum, max int
	for _, s := range sizes {
		if s < 1 {
			t.Fatal("size below 1")
		}
		if s > max {
			max = s
		}
		sum += s
	}
	if sum != 3000 {
		t.Fatalf("sizes sum to %d", sum)
	}
	if max != 500 {
		t.Fatalf("max size = %d, want 500", max)
	}
}

func TestGenerateSnapshot(t *testing.T) {
	cfg := SnapshotConfig{
		Seed:           2,
		NObjects:       50,
		IndependentAcc: []float64{0.9, 0.8},
		Copiers:        []CopierSpec{{MasterIndex: 0, CopyRate: 0.8, OwnAcc: 0.7}},
		FalsePool:      10,
	}
	sw, err := GenerateSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Dataset.Sources()) != 3 || len(sw.Dataset.Objects()) != 50 {
		t.Fatalf("world shape: %d sources, %d objects",
			len(sw.Dataset.Sources()), len(sw.Dataset.Objects()))
	}
	if sw.MasterOf["C0"] != "I0" {
		t.Fatal("master mapping wrong")
	}
	// The copier should agree with its master far more than chance.
	ov := sw.Dataset.OverlapOf("C0", "I0")
	if float64(ov.Same)/float64(len(ov.Objects)) < 0.7 {
		t.Fatalf("copier agreement = %d/%d", ov.Same, len(ov.Objects))
	}
	if _, err := GenerateSnapshot(SnapshotConfig{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestGenerateTemporal(t *testing.T) {
	cfg := TemporalConfig{
		Seed:       3,
		NObjects:   30,
		Horizon:    40,
		ChangeRate: 0.15,
		Publishers: []PublisherSpec{
			{CaptureProb: 0.95, MaxDelay: 2},
			{CaptureProb: 0.85, MaxDelay: 3},
		},
		LazyCopiers: []LazyCopierSpec{
			{MasterIndex: 0, CopyProb: 0.85, MinLag: 1, MaxLag: 4},
		},
	}
	tw, err := GenerateTemporal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tw.Dataset.Sources()) != 3 {
		t.Fatalf("sources = %v", tw.Dataset.Sources())
	}
	// Copier claims must postdate the master's same-value claims.
	trailing, total := 0, 0
	masterTimes := map[string]model.Time{}
	for _, c := range tw.Dataset.UpdateTrace("P0") {
		masterTimes[c.Object.String()+"\x00"+c.Value] = c.Time
	}
	for _, c := range tw.Dataset.UpdateTrace("L0") {
		if mt, ok := masterTimes[c.Object.String()+"\x00"+c.Value]; ok {
			total++
			if c.Time > mt {
				trailing++
			}
		}
	}
	if total == 0 || float64(trailing)/float64(total) < 0.95 {
		t.Fatalf("copier trails master on %d/%d matched updates", trailing, total)
	}
	// Quantization coarsens timestamps.
	cfg.SnapshotEvery = 5
	tq, err := GenerateTemporal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tq.Dataset.Claims() {
		if c.Time%5 != 0 {
			t.Fatalf("unquantized claim time %d", c.Time)
		}
	}
}

func TestGenerateRatings(t *testing.T) {
	cfg := RatingConfig{
		Seed: 4, NItems: 40, NHonest: 5, NoiseRate: 0.2,
		NContrarians: 1, NCopiers: 1, OppositionRate: 1,
	}
	rw, err := GenerateRatings(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rw.Dataset.Sources()) != 7 {
		t.Fatalf("sources = %v", rw.Dataset.Sources())
	}
	scale := map[string]bool{"Good": true, "Neutral": true, "Bad": true}
	for _, c := range rw.Dataset.Claims() {
		if !scale[c.Value] {
			t.Fatalf("off-scale rating %q", c.Value)
		}
	}
	// The copier matches R0 exactly.
	ov := rw.Dataset.OverlapOf("COPY0", "R0")
	if ov.Same != len(ov.Objects) {
		t.Fatalf("copier mismatch: %d/%d", ov.Same, len(ov.Objects))
	}
	// The full contrarian never agrees with R0 on polarized ratings.
	contra := rw.Dataset.OverlapOf("CONTRA0", "R0")
	if contra.Same > cfg.NItems/2 {
		t.Fatalf("contrarian agrees too much: %d/%d", contra.Same, len(contra.Objects))
	}
	if _, err := GenerateRatings(RatingConfig{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRenderAuthorsStyles(t *testing.T) {
	authors := []author{{given: "Jeffrey", family: "Ullman"}, {given: "Jennifer", family: "Widom"}}
	forms := map[style]string{
		styleFull:         "Jeffrey Ullman; Jennifer Widom",
		styleInitials:     "J. Ullman; J. Widom",
		styleInverted:     "Ullman, Jeffrey; Widom, Jennifer",
		styleAndSeparated: "Jeffrey Ullman and Jennifer Widom",
	}
	for st, want := range forms {
		if got := renderAuthors(authors, st); got != want {
			t.Errorf("style %d = %q, want %q", int(st), got, want)
		}
	}
	// All styles must parse to the same canonical key.
	keys := map[string]bool{}
	for st := range forms {
		keys[strsim.ParseAuthorList(renderAuthors(authors, st)).CanonicalKey()] = true
	}
	if len(keys) != 1 {
		t.Fatalf("styles parse to %d distinct keys", len(keys))
	}
}

func TestMisspellChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		w := "Ullman"
		if got := misspell(rng, w); got == w {
			t.Fatalf("misspell returned the original")
		}
	}
	if got := misspell(rng, "ab"); got != "abx" {
		t.Fatalf("short word misspell = %q", got)
	}
}

func TestCorruptAuthorsDiffersFromTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	authors := []author{{given: "Hector", family: "Garcia"}, {given: "Jeff", family: "Ullman"}}
	truthKey := strsim.ParseAuthorList(renderAuthors(authors, styleFull)).CanonicalKey()
	for i := 0; i < 30; i++ {
		bad := corruptAuthors(rng, authors, i)
		key := strsim.ParseAuthorList(renderAuthors(bad, styleFull)).CanonicalKey()
		if key == truthKey {
			t.Fatalf("corruption %d preserved the canonical key", i)
		}
	}
}

func TestBookTruthRegistered(t *testing.T) {
	corpus, err := GenerateBooks(smallBookConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := corpus.Books[0]
	v, ok := corpus.World.TrueNow(BookObj(b.ID))
	if !ok || v != b.TrueAuthors {
		t.Fatalf("truth for %s = %q,%v", b.ID, v, ok)
	}
	if _, ok := corpus.World.TrueNow(model.Obj(b.ID, PublisherAttr)); !ok {
		t.Fatal("publisher truth missing")
	}
}

func TestAuthorsDatasetProjection(t *testing.T) {
	corpus, err := GenerateBooks(smallBookConfig())
	if err != nil {
		t.Fatal(err)
	}
	authors, err := corpus.AuthorsDataset()
	if err != nil {
		t.Fatal(err)
	}
	if authors.Len() != corpus.Listings {
		t.Fatalf("authors claims = %d, want %d listings", authors.Len(), corpus.Listings)
	}
	for _, o := range authors.Objects() {
		if o.Attribute != AuthorsAttr {
			t.Fatalf("non-author object %v leaked", o)
		}
	}
	_ = dataset.AffAttr // keep the import honest if assertions change
}
