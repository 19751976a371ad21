package dataset

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

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

// TestAppendCompiledMatchesFromScratch pins that the compiled view of a
// successor — including the intern-table reuse fast path — equals the flat
// build's, field for field.
func TestAppendCompiledMatchesFromScratch(t *testing.T) {
	all := testClaims(80)
	base, err := FromClaims(all[:60])
	if err != nil {
		t.Fatal(err)
	}
	base.Compiled() // force the predecessor's view so the fast path engages
	for _, cut := range []int{70, 80} {
		d, err := base.Append(all[60:cut])
		if err != nil {
			t.Fatal(err)
		}
		flat, err := FromClaims(all[:cut])
		if err != nil {
			t.Fatal(err)
		}
		got, want := d.Compiled(), flat.Compiled()
		if !reflect.DeepEqual(got.sources, want.sources) ||
			!reflect.DeepEqual(got.objects, want.objects) ||
			!reflect.DeepEqual(got.values, want.values) {
			t.Fatal("interned tables differ")
		}
		if !reflect.DeepEqual(got.GroupStart, want.GroupStart) ||
			!reflect.DeepEqual(got.GroupValue, want.GroupValue) ||
			!reflect.DeepEqual(got.GroupSrcStart, want.GroupSrcStart) ||
			!reflect.DeepEqual(got.GroupSrc, want.GroupSrc) {
			t.Fatal("group CSR differs")
		}
		if !reflect.DeepEqual(got.SrcStart, want.SrcStart) ||
			!reflect.DeepEqual(got.SrcObj, want.SrcObj) ||
			!reflect.DeepEqual(got.SrcVal, want.SrcVal) ||
			!reflect.DeepEqual(got.SrcGroup, want.SrcGroup) {
			t.Fatal("per-source CSR differs")
		}
	}
}

// TestAppendSiblingsIndependent pins the shared-storage safety property:
// two successors appended from the same base must not clobber each other
// (the claims backing array is re-capped per epoch), and the base must stay
// untouched.
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

// TestSnapshotV2RoundTrip pins that a log-carrying dataset snapshot
// round-trips with its epochs, while flat datasets still write the
// version-1 byte layout.
func TestSnapshotV2RoundTrip(t *testing.T) {
	all := testClaims(50)
	flat, err := FromClaims(all[:40])
	if err != nil {
		t.Fatal(err)
	}
	var flatBuf bytes.Buffer
	if err := flat.WriteSnapshot(&flatBuf); err != nil {
		t.Fatal(err)
	}
	// Byte 8 of the frame is the version (after the 8-byte magic).
	if v := flatBuf.Bytes()[8]; v != 1 {
		t.Fatalf("flat dataset framed as version %d, want 1", v)
	}

	d, err := flat.Append(all[40:46])
	if err != nil {
		t.Fatal(err)
	}
	d, err = d.Append(all[46:])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if v := buf.Bytes()[8]; v != 2 {
		t.Fatalf("appended dataset framed as version %d, want 2", v)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
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
		var buf bytes.Buffer
		if err := d.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
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

// TestSnapshotAtPrecedence pins the SnapshotAt visibility rule: a visible
// timestamped claim supersedes a timeless claim in either ingestion order,
// timestamped claims resolve by latest time, and timeless claims are the
// fallback when no timestamped claim is visible at t — including for zero
// and negative timestamps, where timeless claims (sorting at time 0)
// iterate after some timestamped ones.
func TestSnapshotAtPrecedence(t *testing.T) {
	o := model.Obj("e", "a")
	timeless := func(v string) model.Claim { return model.NewClaim("s", o, v) }
	at := func(v string, tm model.Time) model.Claim {
		c := model.NewClaim("s", o, v)
		c.HasTime = true
		c.Time = tm
		return c
	}
	cases := []struct {
		name   string
		claims []model.Claim
		t      model.Time
		want   string
	}{
		{"timestamped beats earlier timeless", []model.Claim{timeless("tl"), at("ts", 10)}, 20, "ts"},
		{"timestamped beats later-ingested timeless", []model.Claim{at("ts", 10), timeless("tl")}, 20, "ts"},
		{"timeless fallback before first timestamp", []model.Claim{timeless("tl"), at("ts", 10)}, 5, "tl"},
		{"latest visible timestamp wins", []model.Claim{at("a", 1), at("b", 5), at("c", 9)}, 6, "b"},
		{"negative timestamp beats timeless", []model.Claim{at("neg", -5), timeless("tl")}, 0, "neg"},
		{"negative timestamp beats timeless, reversed", []model.Claim{timeless("tl"), at("neg", -5)}, 0, "neg"},
		{"timeless fallback below negative timestamp", []model.Claim{at("neg", -5), timeless("tl")}, -10, "tl"},
		{"zero timestamp beats timeless", []model.Claim{timeless("tl"), at("zero", 0)}, 0, "zero"},
		{"later timeless wins among timeless", []model.Claim{timeless("tl1"), timeless("tl2")}, 0, "tl2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := FromClaims(tc.claims)
			if err != nil {
				t.Fatal(err)
			}
			snap := d.SnapshotAt(tc.t)
			got, ok := snap.Value("s", o)
			if !ok || got != tc.want {
				t.Fatalf("SnapshotAt(%d) = %q/%v, want %q", tc.t, got, ok, tc.want)
			}
		})
	}
}

// TestSnapshotAtOrderIndependent fuzzes the precedence rule: for random
// claim mixes, SnapshotAt must give the same projection whatever order the
// claims were ingested in.
func TestSnapshotAtOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	o := model.Obj("e", "a")
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(5)
		claims := make([]model.Claim, n)
		for i := range claims {
			c := model.NewClaim("s", o, fmt.Sprintf("v%d", i))
			if rng.Intn(2) == 0 {
				c.HasTime = true
				c.Time = model.Time(rng.Intn(11) - 5)
			}
			claims[i] = c
		}
		d1, err := FromClaims(claims)
		if err != nil {
			t.Fatal(err)
		}
		rev := make([]model.Claim, n)
		for i := range claims {
			rev[n-1-i] = claims[i]
		}
		d2, err := FromClaims(rev)
		if err != nil {
			t.Fatal(err)
		}
		for tm := model.Time(-6); tm <= 6; tm++ {
			v1, ok1 := d1.SnapshotAt(tm).Value("s", o)
			v2, ok2 := d2.SnapshotAt(tm).Value("s", o)
			if ok1 != ok2 {
				t.Fatalf("trial %d t=%d: visibility differs", trial, tm)
			}
			// Exact ties (same kind, same time) legitimately resolve by
			// ingestion order; only order-independent outcomes are compared.
			if ok1 && v1 != v2 && !hasExactTie(claims) {
				t.Fatalf("trial %d t=%d: %q vs %q", trial, tm, v1, v2)
			}
		}
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
