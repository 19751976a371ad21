package dataset

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"sourcecurrents/internal/model"
)

func testClaims(n int) []model.Claim {
	rng := rand.New(rand.NewSource(int64(n)))
	claims := make([]model.Claim, 0, n)
	for i := 0; i < n; i++ {
		s := model.SourceID(fmt.Sprintf("s%d", rng.Intn(7)))
		o := model.Obj(fmt.Sprintf("e%d", rng.Intn(11)), "a")
		v := fmt.Sprintf("v%d", rng.Intn(4))
		claims = append(claims, model.NewClaim(s, o, v))
	}
	return claims
}

// assertDatasetsEquivalent asserts that a log-carrying successor exposes
// exactly the state a flat from-scratch build over the same claim sequence
// exposes: claims, id tables, per-source time order, per-object source
// order, snapshot values, overlaps and value groups.
func assertDatasetsEquivalent(t *testing.T, got, want *Dataset) {
	t.Helper()
	if !reflect.DeepEqual(got.Claims(), want.Claims()) {
		t.Fatalf("claims differ")
	}
	if !reflect.DeepEqual(got.Sources(), want.Sources()) {
		t.Fatalf("sources differ: %v vs %v", got.Sources(), want.Sources())
	}
	if !reflect.DeepEqual(got.Objects(), want.Objects()) {
		t.Fatalf("objects differ")
	}
	for _, s := range want.Sources() {
		if !reflect.DeepEqual(got.ClaimsBySource(s), want.ClaimsBySource(s)) {
			t.Fatalf("source %s: time-ordered claims differ", s)
		}
		if !reflect.DeepEqual(got.ObjectsOf(s), want.ObjectsOf(s)) {
			t.Fatalf("source %s: objects differ", s)
		}
		for _, o := range want.ObjectsOf(s) {
			gv, gok := got.Value(s, o)
			wv, wok := want.Value(s, o)
			if gv != wv || gok != wok {
				t.Fatalf("value(%s, %v) = %q/%v, want %q/%v", s, o, gv, gok, wv, wok)
			}
		}
	}
	for _, o := range want.Objects() {
		if !reflect.DeepEqual(got.ClaimsByObject(o), want.ClaimsByObject(o)) {
			t.Fatalf("object %v: source-ordered claims differ", o)
		}
		if !reflect.DeepEqual(got.ValuesFor(o), want.ValuesFor(o)) {
			t.Fatalf("object %v: value groups differ", o)
		}
	}
	if !reflect.DeepEqual(got.Pairs(1), want.Pairs(1)) {
		t.Fatalf("pair overlaps differ")
	}
}

// TestAppendMatchesFromScratch pins the successor-sharing construction:
// appending batches (including new sources, objects and values mid-stream)
// yields a dataset indistinguishable from a flat build over the
// concatenated claim sequence, at every epoch.
func TestAppendMatchesFromScratch(t *testing.T) {
	all := testClaims(60)
	d, err := FromClaims(all[:30])
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int{30, 31, 45, 52}
	for i, b := range bounds {
		end := len(all)
		if i+1 < len(bounds) {
			end = bounds[i+1]
		}
		d, err = d.Append(all[b:end])
		if err != nil {
			t.Fatal(err)
		}
		flat, err := FromClaims(all[:end])
		if err != nil {
			t.Fatal(err)
		}
		assertDatasetsEquivalent(t, d, flat)
		if got, want := d.Epoch(), i+1; got != want {
			t.Fatalf("epoch = %d, want %d", got, want)
		}
	}
	if got, want := d.LogBounds(), bounds; !reflect.DeepEqual(got, want) {
		t.Fatalf("LogBounds = %v, want %v", got, want)
	}
}

// diffCompiled returns the name of the first field of Compiled — exported or
// not: the id columns, both claim-index CSRs, the snapshot view, the spans,
// the popularity tally, maxGroups, the three tables — on which got departs
// from want, or "". A nil and an empty column are the same column.
func diffCompiled(got, want *Compiled) string {
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < gv.NumField(); i++ {
		field := func(v reflect.Value) reflect.Value {
			f := v.Field(i)
			return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
		}
		g, w := field(gv), field(wv)
		if g.Kind() == reflect.Slice && g.Len() == 0 && w.Len() == 0 {
			continue
		}
		if !reflect.DeepEqual(g.Interface(), w.Interface()) {
			return fmt.Sprintf("%s = %v, flat build %v", gv.Type().Field(i).Name, g, w)
		}
	}
	return ""
}

// chainBatch draws the k-th batch of a seeded append schedule over d, one of
// the shapes the splice in buildColumns has a case for.
func chainBatch(rng *rand.Rand, d *Dataset, k int) []model.Claim {
	claims, srcs, objs := d.Claims(), d.Sources(), d.Objects()
	pick := func() model.Claim { return claims[rng.Intn(len(claims))] }
	dated := func(c model.Claim) model.Claim {
		switch rng.Intn(3) {
		case 0:
			return c // timeless
		case 1:
			return model.NewTemporalClaim(c.Source, c.Object, c.Value, pick().Time) // a tie, as likely as not
		}
		return model.NewTemporalClaim(c.Source, c.Object, c.Value, model.Time(rng.Intn(9)-3))
	}
	value := func() string { return fmt.Sprintf("v%d", rng.Intn(5)) }
	switch k % 8 {
	case 0: // a source, an object and a value that each sort first: every id moves
		first := fmt.Sprintf("!%03d", 999-k)
		return []model.Claim{
			model.NewClaim(model.SourceID(first), model.Obj(first, "a"), first),
			model.NewClaim(model.SourceID(first), pick().Object, value()),
			model.NewClaim(pick().Source, model.Obj(first, "a"), value()),
		}
	case 1: // one source overwrites cells it already holds
		old := pick()
		return []model.Claim{
			model.NewClaim(old.Source, old.Object, "over"+value()),
			dated(model.NewClaim(old.Source, old.Object, value())),
		}
	case 2: // a group vanishes: the only source behind a value moves to another
		for _, o := range objs {
			groups := d.ValuesFor(o)
			for i, g := range groups {
				if len(g.Sources) == 1 && len(groups) > 1 {
					return []model.Claim{model.NewClaim(g.Sources[0], o, groups[(i+1)%len(groups)].Value)}
				}
			}
		}
		return []model.Claim{pick()}
	case 3: // timestamped and timeless claims mixed, on cells old and new
		batch := make([]model.Claim, 2+rng.Intn(6))
		for i := range batch {
			batch[i] = dated(model.NewClaim(srcs[rng.Intn(len(srcs))], objs[rng.Intn(len(objs))], value()))
		}
		return batch
	case 4: // object-major: every source on one object, here a new one
		o := model.Obj(fmt.Sprintf("held%d", k), "a")
		var batch []model.Claim
		for _, s := range srcs {
			batch = append(batch, dated(model.NewClaim(s, o, value())))
		}
		return batch
	case 5: // source-major: one source across many objects
		s := srcs[rng.Intn(len(srcs))]
		var batch []model.Claim
		for _, o := range objs[:1+rng.Intn(len(objs))] {
			batch = append(batch, model.NewClaim(s, o, value()))
		}
		return batch
	case 6: // re-assertions: nothing new, tables shared
		return []model.Claim{pick(), pick()}
	default: // a new value and a new source that sort last
		return []model.Claim{model.NewClaim(model.SourceID(fmt.Sprintf("zz%d", k)), pick().Object, fmt.Sprintf("zz%d", k))}
	}
}

// TestAppendCompiledMatchesFromScratch pins that the index of a successor —
// the rows it carried over, the rows it laid out, the id columns it extended
// where they lay — equals the flat build's over the same claims in every
// field, at every epoch of seeded 64-deep chains, whichever of the two ways
// the claims got into the log.
func TestAppendCompiledMatchesFromScratch(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, err := FromClaims(testClaims(60 + int(seed)))
		if err != nil {
			t.Fatal(err)
		}
		inPlace, copied := 0, 0
		before := d // a flat build of d's claims, to hold d to once it has a successor
		for k := 0; k < 64; k++ {
			next, err := d.Append(chainBatch(rng, d, k+int(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if &next.Claims()[0] == &d.Claims()[0] {
				inPlace++
			} else {
				copied++
			}
			flat, err := FromClaims(next.Claims())
			if err != nil {
				t.Fatal(err)
			}
			if msg := diffCompiled(next.Compiled(), flat.Compiled()); msg != "" {
				t.Fatalf("seed %d, epoch %d (batch kind %d): %s", seed, k+1, (k+int(seed))%8, msg)
			}
			if msg := diffCompiled(d.Compiled(), before.Compiled()); msg != "" {
				t.Fatalf("seed %d, epoch %d: appending wrote into the predecessor: %s", seed, k+1, msg)
			}
			if !reflect.DeepEqual(next.Claims()[:d.Len()], d.Claims()) || cap(next.Claims()) != next.Len() {
				t.Fatalf("seed %d, epoch %d: the successor's claims are not the predecessor's plus the batch, capped", seed, k+1)
			}
			d, before = next, flat
		}
		// The first append and every one the log had no room for copy; the
		// rest extend it where it lies.
		if copied < 2 || inPlace < 32 {
			t.Fatalf("seed %d: %d appends extended the log in place and %d copied it; want most in place and a growth boundary crossed", seed, inPlace, copied)
		}
	}
}

// TestAppendInternGrowth pins interning when a batch names keys a table
// lacks: new sources, objects and values that sort before the first entry,
// between entries and after the last, each table growing on its own and all
// three in one batch, a new key repeated within its batch. Every successor,
// the chained one that extends the log and its id columns where they lie and
// the sibling that copies them, equals a flat build in every field of
// Compiled; and at every epoch each entry is found at its index, while a key
// absent before, between or after the entries is not.
func TestAppendInternGrowth(t *testing.T) {
	c := func(s, e, v string) model.Claim { return model.NewClaim(model.SourceID(s), model.Obj(e, "a"), v) }
	// Repeated, so that the log the first append copies into has room for
	// every later batch.
	var claims []model.Claim
	for i := 0; i < 20; i++ {
		claims = append(claims, c("m1", "e2", "v2"), c("m3", "e4", "v4"), c("m5", "e2", "v4"))
	}
	base, err := FromClaims(claims)
	if err != nil {
		t.Fatal(err)
	}
	batches := []struct {
		name   string
		claims []model.Claim
	}{
		{"all three tables, each key first", []model.Claim{c("a0", "a0", "a0"), c("a0", "e2", "a0")}},
		{"all three tables, each key between", []model.Claim{c("m2", "e3", "v3"), c("m4", "e3", "v3"), c("m1", "e3", "v35")}},
		{"all three tables, each key last", []model.Claim{c("z9", "z9", "z9"), c("z9", "z9", "z9")}},
		{"values only, first, between and last", []model.Claim{c("m1", "e2", "F_e2_0"), c("m3", "e4", "A"), c("m5", "e2", "v21"), c("m3", "e2", "zz"), c("m1", "e4", "A")}},
		{"sources only, first, between and last", []model.Claim{c("!", "e2", "v2"), c("m15", "e4", "v4"), c("zz", "e2", "v2")}},
		{"objects only, first, between and last", []model.Claim{c("m1", "!", "v2"), c("m3", "e21", "v4"), c("m3", "zz", "v4"), c("m5", "e21", "v2")}},
		{"all three tables, every position at once", []model.Claim{
			c("0", "0", "0"), c("m6", "e5", "v5"), c("~", "~", "~"), c("m6", "e5", "v5"), c("m1", "e21", "~")}},
		{"nothing new", []model.Claim{c("m1", "e2", "v4")}},
	}
	var all []model.Claim
	all = append(all, base.Claims()...)
	d := base
	for k, b := range batches {
		all = append(all, b.claims...)
		flat, err := FromClaims(all)
		if err != nil {
			t.Fatal(err)
		}
		next, err := d.Append(b.claims)
		if err != nil {
			t.Fatal(err)
		}
		sibling, err := d.Append(b.claims)
		if err != nil {
			t.Fatal(err)
		}
		if k > 0 && !sameArray(next, d) || sameArray(sibling, d) {
			t.Fatalf("%s: chained in place %v, sibling in place %v; want %v, false", b.name, sameArray(next, d), sameArray(sibling, d), k > 0)
		}
		for _, got := range []struct {
			path string
			d    *Dataset
		}{{"chained", next}, {"sibling", sibling}} {
			if msg := diffCompiled(got.d.Compiled(), flat.Compiled()); msg != "" {
				t.Fatalf("%s, %s: %s", b.name, got.path, msg)
			}
		}
		cols := next.Compiled()
		checkLookups(t, b.name+", sources", cols.SourceIDs(), cols.SourceIndex,
			func(s model.SourceID) model.SourceID { return s + "\x00" }, "", "\x7f")
		checkLookups(t, b.name+", objects", next.Objects(), cols.ObjectIndex,
			func(o model.ObjectID) model.ObjectID { return model.Obj(o.Entity, o.Attribute+"\x00") },
			model.Obj("", "a"), model.Obj("\x7f", "a"))
		values := make([]string, cols.NumValues())
		for i := range values {
			values[i] = cols.Value(i)
		}
		checkLookups(t, b.name+", values", values, cols.ValueIndex,
			func(v string) string { return v + "\x00" }, "", "\x7f")
		d = next
	}
}

// checkLookups holds lookup over the sorted table tab: each entry is found at
// its index, and the keys absent before the first entry (before), after the
// last (after) and just after each entry (between) are not found, (0, false).
func checkLookups[K any](t *testing.T, what string, tab []K, lookup func(K) (int32, bool), between func(K) K, before, after K) {
	t.Helper()
	absent := []K{before, after}
	for i, k := range tab {
		if id, ok := lookup(k); !ok || id != int32(i) {
			t.Fatalf("%s: entry %d (%v) looks up as (%d, %v)", what, i, k, id, ok)
		}
		absent = append(absent, between(k))
	}
	for _, k := range absent {
		if id, ok := lookup(k); ok || id != 0 {
			t.Fatalf("%s: absent key %q looks up as (%d, %v), want (0, false)", what, fmt.Sprint(k), id, ok)
		}
	}
}

// sameArray reports whether two datasets' claims start in the same array.
func sameArray(a, b *Dataset) bool { return &a.Claims()[0] == &b.Claims()[0] }

// TestAppendSiblingsIndependent pins the shared-storage safety property: of
// the successors appended onto one dataset exactly one — and only when the
// dataset stands at the tip of its log — extends the log in place; every
// other copies. None can clobber another, the base stays untouched, and no
// caller's append onto Claims() or Batch() reaches any of them.
func TestAppendSiblingsIndependent(t *testing.T) {
	base, err := FromClaims(testClaims(40))
	if err != nil {
		t.Fatal(err)
	}
	baseClaims := append([]model.Claim(nil), base.Claims()...)
	b1 := []model.Claim{model.NewClaim("sibA", model.Obj("e1", "a"), "vA")}
	b2 := []model.Claim{model.NewClaim("sibB", model.Obj("e1", "a"), "vB")}
	d1, err := base.Append(b1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := base.Append(b2)
	if err != nil {
		t.Fatal(err)
	}
	if got := d1.Claims()[40]; got.Source != "sibA" {
		t.Fatalf("sibling 2 clobbered sibling 1: %v", got)
	}
	if got := d2.Claims()[40]; got.Source != "sibB" {
		t.Fatalf("sibling 1 clobbered sibling 2: %v", got)
	}
	if !reflect.DeepEqual(base.Claims(), baseClaims) {
		t.Fatal("append mutated the base dataset")
	}
	if base.Epoch() != 0 || len(base.Batch()) != 0 || base.LogBounds() != nil {
		t.Fatal("append gave the base a log")
	}
	if _, ok := base.Value("sibA", model.Obj("e1", "a")); ok {
		t.Fatal("base sees the appended claim")
	}
	if sameArray(d1, base) || sameArray(d2, base) || sameArray(d1, d2) {
		t.Fatal("a flat dataset has no log to extend: both successors must copy")
	}

	// equalsFlat checks a successor against a flat build over want.
	equalsFlat := func(what string, d *Dataset, want ...[]model.Claim) {
		t.Helper()
		var all []model.Claim
		for _, part := range want {
			all = append(all, part...)
		}
		flat, err := FromClaims(all)
		if err != nil {
			t.Fatal(err)
		}
		assertDatasetsEquivalent(t, d, flat)
		if msg := diffCompiled(d.Compiled(), flat.Compiled()); msg != "" {
			t.Fatalf("%s: %s", what, msg)
		}
	}
	intruder := model.NewClaim("intruder", model.Obj("e1", "a"), "x")

	// d1 stands at the tip of a log with room behind it. A caller appending to
	// what Claims and Batch hand out writes into an array of its own.
	if room := cap(d1.log.buf) - d1.Len(); room < 16 {
		t.Fatalf("the copied log has room for %d more claims; the cases below need 16", room)
	}
	_ = append(d1.Claims(), intruder)
	_ = append(d1.Batch(), intruder)

	// N goroutines, N batches, one dataset: one successor extends the log.
	const siblings = 8
	batches := make([][]model.Claim, siblings)
	successors := make([]*Dataset, siblings)
	var wg sync.WaitGroup
	for i := range batches {
		batches[i] = []model.Claim{
			model.NewClaim(model.SourceID(fmt.Sprintf("sib%d", i)), model.Obj("e1", "a"), fmt.Sprintf("v%d", i)),
			model.NewClaim("s1", model.Obj(fmt.Sprintf("e%d", i), "a"), "v1"),
		}
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			next, err := d1.Append(batches[i])
			if err != nil {
				t.Error(err)
			}
			successors[i] = next
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	inPlace := 0
	for i, next := range successors {
		if sameArray(next, d1) {
			inPlace++
		}
		equalsFlat(fmt.Sprintf("concurrent sibling %d", i), next, baseClaims, b1, batches[i])
	}
	if inPlace != 1 {
		t.Fatalf("%d of %d concurrent siblings extended the log in place, want exactly 1", inPlace, siblings)
	}
	// The callers' appends above and these, after the fact, reached nobody.
	_ = append(d1.Claims(), intruder)
	_ = append(d1.Batch(), intruder)
	equalsFlat("the dataset appended onto", d1, baseClaims, b1)
	for i, next := range successors {
		if got := next.Claims()[41]; got != batches[i][0] {
			t.Fatalf("sibling %d's first appended claim is %v, want %v", i, got, batches[i][0])
		}
	}

	// The tip is won once: appending twice from one place (bench/layers.go
	// appends cur.Dataset() and then cur itself) copies the second time, and
	// so does the retry after a successor that won the tip was dropped (a
	// segment that failed to persist). The retry's copy is a log of its own,
	// which its successor extends.
	tip, err := d2.Append(b1)
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := tip.Append(batches[0])
	if err != nil {
		t.Fatal(err)
	}
	retry, err := tip.Append(batches[1])
	if err != nil {
		t.Fatal(err)
	}
	onward, err := retry.Append(batches[2])
	if err != nil {
		t.Fatal(err)
	}
	if !sameArray(dropped, tip) || sameArray(retry, tip) || !sameArray(onward, retry) {
		t.Fatalf("in place: first successor %v, retry %v, retry's successor %v; want true, false, true",
			sameArray(dropped, tip), sameArray(retry, tip), sameArray(onward, retry))
	}
	equalsFlat("first successor", dropped, baseClaims, b2, b1, batches[0])
	equalsFlat("retry", retry, baseClaims, b2, b1, batches[1])
	equalsFlat("retry's successor", onward, baseClaims, b2, b1, batches[1], batches[2])
	equalsFlat("the dataset both were appended onto", tip, baseClaims, b2, b1)
}

// TestAppendErrors pins the Append contract errors.
func TestAppendErrors(t *testing.T) {
	d := New()
	if err := d.AddAll(testClaims(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append(testClaims(1)); err == nil {
		t.Fatal("append accepted an unfrozen dataset")
	}
	d.Freeze()
	if _, err := d.Append(nil); err == nil {
		t.Fatal("append accepted an empty batch")
	}
	if _, err := d.Append([]model.Claim{{}}); err == nil {
		t.Fatal("append accepted an invalid claim")
	}
}

// TestSnapshotV2RoundTrip pins that a dataset's sections in the snapshot
// container (version 2 of the session format) round-trip a log-carrying
// dataset with its epochs, and a flat one flat.
func TestSnapshotV2RoundTrip(t *testing.T) {
	all := testClaims(50)
	flat, err := FromClaims(all[:40])
	if err != nil {
		t.Fatal(err)
	}
	got, err := readSnapshot(encodeSnapshot(t, flat))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch() != 0 || got.LogBounds() != nil {
		t.Fatalf("flat dataset loaded at epoch %d with bounds %v", got.Epoch(), got.LogBounds())
	}

	d, err := flat.Append(all[40:46])
	if err != nil {
		t.Fatal(err)
	}
	d, err = d.Append(all[46:])
	if err != nil {
		t.Fatal(err)
	}
	if got, err = readSnapshot(encodeSnapshot(t, d)); err != nil {
		t.Fatal(err)
	}
	if got.Epoch() != 2 {
		t.Fatalf("loaded epoch = %d, want 2", got.Epoch())
	}
	if !reflect.DeepEqual(got.LogBounds(), []int{40, 46}) {
		t.Fatalf("loaded bounds = %v", got.LogBounds())
	}
	assertDatasetsEquivalent(t, got, d)
}

// appendEach appends all[d.Len():] onto d in batches of step claims and
// returns d followed by every successor.
func appendEach(t *testing.T, d *Dataset, all []model.Claim, step int) []*Dataset {
	t.Helper()
	chain := []*Dataset{d}
	for at := d.Len(); at < len(all); at += step {
		next, err := chain[len(chain)-1].Append(all[at:min(at+step, len(all))])
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, next)
	}
	return chain
}

// TestAppendReleasesPredecessors pins that a dataset holds no earlier
// dataset: once the caller drops them, the collector frees every predecessor
// while the newest stays live and still answers At for every epoch.
func TestAppendReleasesPredecessors(t *testing.T) {
	const epochs = 16
	all := testClaims(40 + 5*epochs)
	var freed atomic.Int32
	head, want := func() (*Dataset, [][]model.Claim) {
		base, err := FromClaims(all[:40])
		if err != nil {
			t.Fatal(err)
		}
		chain := appendEach(t, base, all, 5)
		var want [][]model.Claim
		for _, d := range chain[:epochs] {
			want = append(want, d.ClaimsBySource("s3"))
			runtime.SetFinalizer(d, func(*Dataset) { freed.Add(1) })
		}
		return chain[epochs], want
	}()
	for deadline := time.Now().Add(10 * time.Second); freed.Load() < epochs; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d predecessors collected: the newest dataset keeps the rest alive", freed.Load(), epochs)
		}
		runtime.GC()
		time.Sleep(time.Millisecond) // finalizers run on their own goroutine
	}
	if head.Epoch() != epochs {
		t.Fatalf("head at epoch %d, want %d", head.Epoch(), epochs)
	}
	for e := range want {
		at, err := head.At(e)
		if err != nil {
			t.Fatalf("At(%d): %v", e, err)
		}
		if at.Epoch() != e || !reflect.DeepEqual(at.ClaimsBySource("s3"), want[e]) {
			t.Fatalf("At(%d) after the predecessors were collected: epoch %d, s3's claims differ", e, at.Epoch())
		}
	}
}

// TestReadSnapshotBuildsOnce pins that loading a log-carrying snapshot
// indexes its claims once, however many epochs it records: within a few
// allocations (the bounds) of loading the same claims written flat.
func TestReadSnapshotBuildsOnce(t *testing.T) {
	all := testClaims(200 + 10*16)
	base, err := FromClaims(all[:200])
	if err != nil {
		t.Fatal(err)
	}
	chain := appendEach(t, base, all, 10)
	logged := chain[len(chain)-1]
	flat, err := FromClaims(all)
	if err != nil {
		t.Fatal(err)
	}
	if logged.Epoch() != 16 || flat.Epoch() != 0 {
		t.Fatalf("epochs %d and %d, want 16 and 0", logged.Epoch(), flat.Epoch())
	}
	loadAllocs := func(d *Dataset) float64 {
		raw := encodeSnapshot(t, d)
		return testing.AllocsPerRun(10, func() {
			if _, err := readSnapshot(raw); err != nil {
				t.Fatal(err)
			}
		})
	}
	if got, want := loadAllocs(logged), loadAllocs(flat); got > want+4 {
		t.Fatalf("loading 16 epochs takes %.0f allocations, the same claims flat %.0f: the load builds more than one index", got, want)
	}
}

// TestSegmentRoundTrip pins the log-segment format.
func TestSegmentRoundTrip(t *testing.T) {
	batch := testClaims(9)
	batch[0].HasTime = true
	batch[0].Time = -5
	var buf bytes.Buffer
	if err := WriteSegment(&buf, batch); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSegment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, batch) {
		t.Fatal("segment round-trip differs")
	}
	if err := WriteSegment(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("empty segment accepted")
	}
	var trunc bytes.Buffer
	if err := WriteSegment(&trunc, batch); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSegment(bytes.NewReader(trunc.Bytes()[:trunc.Len()-3])); err == nil {
		t.Fatal("truncated segment accepted")
	}
}

// hasExactTie reports whether two claims would tie exactly under the
// precedence rule (same HasTime kind and, for timestamped pairs, the same
// time) — the only case where ingestion order legitimately decides.
func hasExactTie(claims []model.Claim) bool {
	for i := range claims {
		for j := i + 1; j < len(claims); j++ {
			a, b := claims[i], claims[j]
			if a.HasTime == b.HasTime && (!a.HasTime || a.Time == b.Time) {
				return true
			}
		}
	}
	return false
}
