package dataset_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/snapio"
	"sourcecurrents/internal/synth"
)

// Seeded differential suite for the columnar index. Each seed draws a synth
// world — timeless or timestamped — salts it with the cases the orderings
// are decided by (re-assertions, equal-time ties, negative times, a timeless
// and a dated claim on one cell, shuffled ingestion), and an append schedule
// over it (source-major, object-major and mixed batches; sources, objects
// and values held out of the base so batches merge interning tables rather
// than share them). At every epoch, the base included:
//
//   - every Dataset accessor equals the map oracle's (reference_test.go),
//     nil-ness included, for every id and for ids the dataset lacks;
//   - every exported Compiled column equals the oracle's map-derived one;
//   - the appended dataset's columns equal those of a flat FromClaims over
//     the same claims, and of the log reloaded from a snapshot;
//   - At(k) for every earlier epoch k equals the oracle at k — accessors,
//     columns, Epoch, Batch and LogBounds — and appending batch k+1 onto it
//     equals the oracle at k+1, leaving the dataset it was cut from intact.
//
// A failure names its seed; rerun it with -run 'ColumnsMatchMaps/seed=N'.

// index is what Dataset and the oracle both answer.
type index interface {
	Claims() []model.Claim
	Sources() []model.SourceID
	Objects() []model.ObjectID
	ClaimsBySource(model.SourceID) []model.Claim
	ClaimsByObject(model.ObjectID) []model.Claim
	Value(model.SourceID, model.ObjectID) (string, bool)
	ObjectsOf(model.SourceID) []model.ObjectID
	OverlapOf(a, b model.SourceID) dataset.Overlap
	Pairs(minShared int) []dataset.Overlap
	ValuesFor(model.ObjectID) []dataset.ValueGroup
	UpdateTrace(model.SourceID) []model.Claim
}

// sameIndex returns a description of the first accessor on which got
// departs from want, or "".
func sameIndex(got, want index) string {
	differ := func(what string, g, w any) string {
		if reflect.DeepEqual(g, w) {
			return ""
		}
		return fmt.Sprintf("%s = %v, oracle %v", what, g, w)
	}
	if msg := differ("Claims", got.Claims(), want.Claims()); msg != "" {
		return msg
	}
	// Table contents only: an empty dataset's nil-vs-empty table is not part
	// of the contract.
	if len(got.Sources()) != len(want.Sources()) || len(got.Objects()) != len(want.Objects()) {
		return fmt.Sprintf("%d sources, %d objects; oracle %d, %d",
			len(got.Sources()), len(got.Objects()), len(want.Sources()), len(want.Objects()))
	}
	sources := append([]model.SourceID{"no-such-source"}, want.Sources()...)
	objects := append([]model.ObjectID{model.Obj("no-such", "object")}, want.Objects()...)
	for i, s := range sources[1:] {
		if got.Sources()[i] != s {
			return fmt.Sprintf("Sources()[%d] = %s, oracle %s", i, got.Sources()[i], s)
		}
	}
	for i, o := range objects[1:] {
		if got.Objects()[i] != o {
			return fmt.Sprintf("Objects()[%d] = %v, oracle %v", i, got.Objects()[i], o)
		}
	}
	for _, s := range sources {
		for _, msg := range []string{
			differ(fmt.Sprintf("ClaimsBySource(%s)", s), got.ClaimsBySource(s), want.ClaimsBySource(s)),
			differ(fmt.Sprintf("ObjectsOf(%s)", s), got.ObjectsOf(s), want.ObjectsOf(s)),
			differ(fmt.Sprintf("UpdateTrace(%s)", s), got.UpdateTrace(s), want.UpdateTrace(s)),
		} {
			if msg != "" {
				return msg
			}
		}
		for _, o := range objects {
			gv, gok := got.Value(s, o)
			wv, wok := want.Value(s, o)
			if gv != wv || gok != wok {
				return fmt.Sprintf("Value(%s, %v) = %q/%v, oracle %q/%v", s, o, gv, gok, wv, wok)
			}
		}
		for _, b := range sources {
			if msg := differ(fmt.Sprintf("OverlapOf(%s, %s)", s, b), got.OverlapOf(s, b), want.OverlapOf(s, b)); msg != "" {
				return msg
			}
		}
	}
	for _, o := range objects {
		for _, msg := range []string{
			differ(fmt.Sprintf("ClaimsByObject(%v)", o), got.ClaimsByObject(o), want.ClaimsByObject(o)),
			differ(fmt.Sprintf("ValuesFor(%v)", o), got.ValuesFor(o), want.ValuesFor(o)),
		} {
			if msg != "" {
				return msg
			}
		}
	}
	for _, minShared := range []int{0, 1, 4} {
		if msg := differ(fmt.Sprintf("Pairs(%d)", minShared), got.Pairs(minShared), want.Pairs(minShared)); msg != "" {
			return msg
		}
	}
	return ""
}

// sameColumns returns a description of the first exported column (or
// interning-table accessor) on which got departs from want, or "". A nil and
// an empty column are the same column.
func sameColumns(got, want *dataset.Compiled) string {
	if got.NumSources() != want.NumSources() || got.NumObjects() != want.NumObjects() || got.NumValues() != want.NumValues() {
		return fmt.Sprintf("tables sized %d/%d/%d, want %d/%d/%d",
			got.NumSources(), got.NumObjects(), got.NumValues(), want.NumSources(), want.NumObjects(), want.NumValues())
	}
	for i := 0; i < want.NumSources(); i++ {
		if k, ok := got.SourceIndex(want.Source(i)); got.Source(i) != want.Source(i) || !ok || int(k) != i {
			return fmt.Sprintf("source %d: %s (index %d, %v), want %s", i, got.Source(i), k, ok, want.Source(i))
		}
	}
	for i := 0; i < want.NumObjects(); i++ {
		if k, ok := got.ObjectIndex(want.Object(i)); got.Object(i) != want.Object(i) || !ok || int(k) != i {
			return fmt.Sprintf("object %d: %v (index %d, %v), want %v", i, got.Object(i), k, ok, want.Object(i))
		}
	}
	for i := 0; i < want.NumValues(); i++ {
		if k, ok := got.ValueIndex(want.Value(i)); got.Value(i) != want.Value(i) || !ok || int(k) != i {
			return fmt.Sprintf("value %d: %q (index %d, %v), want %q", i, got.Value(i), k, ok, want.Value(i))
		}
	}
	if got.MaxGroupsPerObject() != want.MaxGroupsPerObject() || got.MaxSourcesPerGroup() != want.MaxSourcesPerGroup() {
		return fmt.Sprintf("max groups/sources %d/%d, want %d/%d", got.MaxGroupsPerObject(), got.MaxSourcesPerGroup(),
			want.MaxGroupsPerObject(), want.MaxSourcesPerGroup())
	}
	same := func(g, w any) bool {
		return reflect.ValueOf(g).Len() == 0 && reflect.ValueOf(w).Len() == 0 || reflect.DeepEqual(g, w)
	}
	for _, col := range []struct {
		name string
		g, w any
	}{
		{"GroupStart", got.GroupStart, want.GroupStart},
		{"GroupValue", got.GroupValue, want.GroupValue},
		{"GroupSrcStart", got.GroupSrcStart, want.GroupSrcStart},
		{"GroupSrc", got.GroupSrc, want.GroupSrc},
		{"SrcStart", got.SrcStart, want.SrcStart},
		{"SrcObj", got.SrcObj, want.SrcObj},
		{"SrcVal", got.SrcVal, want.SrcVal},
		{"SrcGroup", got.SrcGroup, want.SrcGroup},
		{"SpanStart", got.SpanStart, want.SpanStart},
		{"SpanKey", got.SpanKey, want.SpanKey},
		{"SpanFirst", got.SpanFirst, want.SpanFirst},
		{"SpanLast", got.SpanLast, want.SpanLast},
		{"PopKey", got.PopKey, want.PopKey},
		{"PopCount", got.PopCount, want.PopCount},
	} {
		if !same(col.g, col.w) {
			return fmt.Sprintf("column %s = %v, want %v", col.name, col.g, col.w)
		}
	}
	return ""
}

// columnsCase is one seed's base claims and append schedule.
type columnsCase struct {
	base    []model.Claim
	batches [][]model.Claim
}

func newColumnsCase(t *testing.T, seed int64) columnsCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var world *dataset.Dataset
	if seed%2 == 0 {
		accs := make([]float64, 4+rng.Intn(5))
		for i := range accs {
			accs[i] = 0.55 + 0.4*rng.Float64()
		}
		copiers := make([]synth.CopierSpec, rng.Intn(4))
		for i := range copiers {
			copiers[i] = synth.CopierSpec{MasterIndex: rng.Intn(2), CopyRate: 0.5 + 0.45*rng.Float64(), OwnAcc: 0.6}
		}
		sw, err := synth.GenerateSnapshot(synth.SnapshotConfig{
			Seed: seed, NObjects: 10 + rng.Intn(20), IndependentAcc: accs, Copiers: copiers, FalsePool: 2 + rng.Intn(4),
		})
		if err != nil {
			t.Fatal(err)
		}
		world = sw.Dataset
	} else {
		pubs := make([]synth.PublisherSpec, 3+rng.Intn(4))
		for i := range pubs {
			pubs[i] = synth.PublisherSpec{CaptureProb: 0.5 + 0.5*rng.Float64(), MaxDelay: model.Time(rng.Intn(4))}
		}
		lazy := make([]synth.LazyCopierSpec, rng.Intn(3))
		for i := range lazy {
			lazy[i] = synth.LazyCopierSpec{MasterIndex: rng.Intn(len(pubs)), CopyProb: 0.8, MinLag: 1, MaxLag: 3}
		}
		tw, err := synth.GenerateTemporal(synth.TemporalConfig{
			Seed: seed, NObjects: 8 + rng.Intn(10), Horizon: 12, ChangeRate: 0.25,
			Publishers: pubs, LazyCopiers: lazy,
			// Quantized times make equal-time ties the rule, not the exception.
			SnapshotEvery: model.Time(rng.Intn(4)),
		})
		if err != nil {
			t.Fatal(err)
		}
		world = tw.Dataset
	}
	claims := append([]model.Claim(nil), world.Claims()...)

	// Salt: every new claim lands on a cell (source, object) that already
	// has one, so precedence — not mere presence — decides the snapshot.
	for k := len(claims)/4 + 4; k > 0; k-- {
		old := claims[rng.Intn(len(claims))]
		value := old.Value // a plain re-assertion …
		if rng.Intn(2) == 0 {
			value = fmt.Sprintf("salt%d", rng.Intn(3)) // … or a value the cell (maybe the world) has not seen
		}
		cl := model.NewClaim(old.Source, old.Object, value)
		switch rng.Intn(4) {
		case 0: // timeless beside whatever the cell holds
		case 1: // the same instant as the old claim: ingestion order decides
			cl = model.NewTemporalClaim(old.Source, old.Object, value, old.Time)
		case 2: // before the epoch; timeless claims sort at 0, after it
			cl = model.NewTemporalClaim(old.Source, old.Object, value, -model.Time(1+rng.Intn(3)))
		default:
			cl = model.NewTemporalClaim(old.Source, old.Object, value, model.Time(rng.Intn(12)))
		}
		claims = append(claims, cl)
	}
	if rng.Intn(2) == 0 {
		rng.Shuffle(len(claims), func(i, j int) { claims[i], claims[j] = claims[j], claims[i] })
	}

	// Hold some sources and objects out of the base entirely, and a random
	// share of everything else.
	heldSrc, heldObj := map[model.SourceID]bool{}, map[model.ObjectID]bool{}
	for _, i := range rng.Perm(len(world.Sources()))[:rng.Intn(3)] {
		heldSrc[world.Sources()[i]] = true
	}
	for _, i := range rng.Perm(len(world.Objects()))[:rng.Intn(4)] {
		heldObj[world.Objects()[i]] = true
	}
	var cc columnsCase
	var pool []model.Claim
	for _, cl := range claims {
		if heldSrc[cl.Source] || heldObj[cl.Object] || rng.Float64() < 0.3 {
			pool = append(pool, cl)
		} else {
			cc.base = append(cc.base, cl)
		}
	}
	// take moves the pool claims matching keep into one batch.
	take := func(keep func(model.Claim) bool) {
		var batch, rest []model.Claim
		for _, cl := range pool {
			if keep(cl) {
				batch = append(batch, cl)
			} else {
				rest = append(rest, cl)
			}
		}
		pool = rest
		if len(batch) > 0 {
			cc.batches = append(cc.batches, batch)
		}
	}
	for b := 2 + rng.Intn(3); b > 0 && len(pool) > 0; b-- {
		pick := pool[rng.Intn(len(pool))]
		switch rng.Intn(4) {
		case 0: // source-major: everything one source still owes
			take(func(cl model.Claim) bool { return cl.Source == pick.Source })
		case 1: // object-major: everything still owed on one object
			take(func(cl model.Claim) bool { return cl.Object == pick.Object })
		case 2: // a re-assertion of claims already in: no new id, tables shared
			cc.batches = append(cc.batches, []model.Claim{cc.base[rng.Intn(len(cc.base))], cc.base[0]})
		default: // mixed, plus a value, a source and an object nobody has named
			take(func(model.Claim) bool { return rng.Intn(4) == 0 })
			if n := len(cc.batches); n > 0 {
				old := cc.base[rng.Intn(len(cc.base))]
				cc.batches[n-1] = append(cc.batches[n-1],
					model.NewClaim(old.Source, old.Object, fmt.Sprintf("changed%d", b)),
					model.NewClaim(model.SourceID(fmt.Sprintf("A-first%d", b)), model.Obj(fmt.Sprintf("zz-last%d", b), "v"), old.Value))
			}
		}
	}
	take(func(model.Claim) bool { return true })
	return cc
}

func runColumnsCase(t *testing.T, seed int64) {
	cc := newColumnsCase(t, seed)
	oracle := dataset.NewMapIndex()
	if err := oracle.AddAll(cc.base); err != nil {
		t.Fatal(err)
	}
	oracle.Freeze()
	d, err := dataset.FromClaims(cc.base)
	if err != nil {
		t.Fatal(err)
	}
	// oracles[k] and live[k] are the oracle and the dataset that were current
	// at epoch k, bounds[k] the claim count there.
	var oracles []*dataset.MapIndex
	var live []*dataset.Dataset
	var bounds []int
	for e := 0; ; e++ {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d, epoch %d of %d: %s", seed, e, len(cc.batches), fmt.Sprintf(format, args...))
		}
		oracles, live = append(oracles, oracle), append(live, d)
		check := func(what string, got *dataset.Dataset, k int) {
			t.Helper()
			var batch []model.Claim
			if k > 0 {
				batch = cc.batches[k-1]
			}
			// A flat dataset's bounds are nil, not merely empty.
			if got.Epoch() != k || !slices.Equal(got.LogBounds(), bounds[:k]) || (k == 0) != (got.LogBounds() == nil) ||
				!slices.Equal(got.Batch(), batch) {
				fail("%sepoch %d, bounds %v, batch %v; want %d, %v, %v", what, got.Epoch(), got.LogBounds(), got.Batch(), k, bounds[:k], batch)
			}
			if msg := sameIndex(got, oracles[k]); msg != "" {
				fail("%s%s", what, msg)
			}
			if msg := sameColumns(got.Compiled(), dataset.CompileMaps(oracles[k])); msg != "" {
				fail("%s%s", what, msg)
			}
		}
		// Every earlier epoch, rebuilt from this one's claim prefix, and
		// sibling successors appended onto it and onto the dataset that served
		// it: first a decoy batch d does not hold, then d's own. All of them
		// share d's claims up to their epoch; d is checked after them, so none
		// may have written through.
		for k := 0; k < e; k++ {
			at, err := d.At(k)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("At(%d): ", k), at, k)
			for _, onto := range []*dataset.Dataset{at, live[k]} {
				if _, err := onto.Append([]model.Claim{model.NewClaim("decoy", model.Obj("decoy", "v"), "x")}); err != nil {
					t.Fatal(err)
				}
			}
			sibling, err := at.Append(cc.batches[k])
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("At(%d).Append(batch %d): ", k, k), sibling, k+1)
		}
		check("", d, e)

		flat, err := dataset.FromClaims(d.Claims())
		if err != nil {
			t.Fatal(err)
		}
		if msg := sameColumns(d.Compiled(), flat.Compiled()); msg != "" {
			fail("Append chain vs flat FromClaims: %s", msg)
		}
		// The dataset as a session snapshot stores it: its sections, opened.
		var sw snapio.SectionWriter
		if err := d.AppendSections(&sw); err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := sw.WriteTo(&snap, "SCDSTEST", 1); err != nil {
			t.Fatal(err)
		}
		m, err := snapio.OpenContainer(snap.Bytes(), "SCDSTEST", 1)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := dataset.FromSections(m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(replayed.LogBounds(), d.LogBounds()) {
			fail("replayed log bounds %v, want %v", replayed.LogBounds(), d.LogBounds())
		}
		if msg := sameColumns(replayed.Compiled(), d.Compiled()); msg != "" {
			fail("snapshot replay vs Append chain: %s", msg)
		}
		if msg := sameIndex(replayed, d); msg != "" {
			fail("snapshot replay vs Append chain: %s", msg)
		}

		if e == len(cc.batches) {
			return
		}
		bounds = append(bounds, d.Len())
		if d, err = d.Append(cc.batches[e]); err != nil {
			t.Fatal(err)
		}
		if oracle, err = oracle.Append(cc.batches[e]); err != nil {
			t.Fatal(err)
		}
	}
}

func TestColumnsMatchMaps(t *testing.T) {
	seeds := 32
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runColumnsCase(t, seed) })
	}
}
