package queryans

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
)

// candidateCSR is the candidate CSR of one query, as planScratch holds it.
type candidateCSR struct {
	Src, PosStart, ObjStart, PosSlot, Slot, Group []int32
}

// candidatesByClaimOf is the candidate builder the claimant-row walk
// replaced, kept as its oracle: every source is asked about every slot by
// binary search (Compiled.ClaimOf), twice — once to count, once to fill —
// and each query position is kept if its slot is among the source's.
func candidatesByClaimOf(c *dataset.Compiled, sc *planScratch) candidateCSR {
	var out candidateCSR
	nS := c.NumSources()
	covCount, objCount := make([]int32, nS), make([]int32, nS)
	for si := 0; si < nS; si++ {
		for slot, oi := range sc.slots {
			if c.ClaimOf(int32(si), oi) >= 0 {
				objCount[si]++
				covCount[si] += sc.posStart[slot+1] - sc.posStart[slot]
			}
		}
	}
	out.Src, out.PosStart, out.ObjStart = []int32{}, []int32{}, []int32{}
	var totPos, totObj int32
	for si := 0; si < nS; si++ {
		if objCount[si] == 0 {
			continue
		}
		out.Src = append(out.Src, int32(si))
		out.PosStart = append(out.PosStart, totPos)
		out.ObjStart = append(out.ObjStart, totObj)
		totPos += covCount[si]
		totObj += objCount[si]
	}
	out.PosStart = append(out.PosStart, totPos)
	out.ObjStart = append(out.ObjStart, totObj)
	out.PosSlot = make([]int32, totPos)
	out.Slot = make([]int32, totObj)
	out.Group = make([]int32, totObj)
	for ci, si := range out.Src {
		k := out.ObjStart[ci]
		for slot, oi := range sc.slots {
			cl := c.ClaimOf(si, oi)
			if cl < 0 {
				continue
			}
			out.Slot[k] = int32(slot)
			out.Group[k] = c.SrcGroup[cl]
			k++
		}
		region := out.Slot[out.ObjStart[ci]:k]
		j := out.PosStart[ci]
		for _, s := range sc.qSlot {
			if _, ok := slices.BinarySearch(region, s); s >= 0 && ok {
				out.PosSlot[j] = s
				j++
			}
		}
	}
	return out
}

// checkCandidates builds q's candidates on sc (a scratch recycled across
// calls, so nothing may leak from an earlier query) and compares every CSR
// array with the oracle's, then checks the coverage classes: each class is
// a maximal run of consecutive candidates with equal slot lists, named by
// its first member. It returns the number of classes.
func checkCandidates(t *testing.T, c *dataset.Compiled, sc *planScratch, q []model.ObjectID, where string) int {
	t.Helper()
	sc.intern(c, q)
	sc.candidates(c)
	got := candidateCSR{sc.candSrc, sc.candPosStart, sc.candObjStart, sc.candPosSlot, sc.candSlot, sc.candGroup}
	want := candidatesByClaimOf(c, sc)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: claimant-row candidates differ from ClaimOf's:\n got %+v\nwant %+v", where, got, want)
	}
	slotsOf := func(ci int32) []int32 { return want.Slot[want.ObjStart[ci]:want.ObjStart[ci+1]] }
	classes := 0
	for ci := int32(0); ci < int32(len(want.Src)); ci++ {
		rep := ci
		if ci > 0 && slices.Equal(slotsOf(ci-1), slotsOf(ci)) {
			rep = sc.candClass[ci-1]
		} else {
			classes++
		}
		if sc.candClass[ci] != rep {
			t.Fatalf("%s: candidate %d is in class %d, want %d", where, ci, sc.candClass[ci], rep)
		}
	}
	if len(sc.candClass) != len(want.Src) {
		t.Fatalf("%s: %d classes marked for %d candidates", where, len(sc.candClass), len(want.Src))
	}
	return classes
}

// TestCandidatesMatchClaimOf pins the candidate CSR built from the queried
// objects' claimant rows to the ClaimOf builder it replaced, array for array:
// on the ragged golden worlds and the seeded differential worlds (synth
// copiers, full coverage, 430+ sources), under queries with a repeated
// object, an object absent from the dataset and no known object at all, and
// on a world whose equal coverage sets are not adjacent in source order.
func TestCandidatesMatchClaimOf(t *testing.T) {
	sc := new(planScratch)
	for _, seed := range []int64{5, 7, 21, 99} {
		d, _ := goldenQueryWorld(t, seed)
		for name, q := range goldenQueries(d) {
			checkCandidates(t, d.Compiled(), sc, q, fmt.Sprintf("golden seed=%d %s", seed, name))
		}
	}
	for seed := int64(1); seed <= 14; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, _ := finalWorld(t, seed, rng)
		for name, q := range finalQueries(d, rng) {
			checkCandidates(t, d.Compiled(), sc, q, fmt.Sprintf("final seed=%d %s", seed, name))
		}
	}

	// Interleaved coverage: S0, S2 and S3 claim o0 and o1, S1 and S4 only o2,
	// so {o0, o1} is one class at S2..S3 and another at S0, and S5 — which
	// claims all three, o1 in the value group S0's claim falls in — stands
	// alone.
	d := dataset.New()
	for _, cl := range []string{
		"S0 o0=a", "S0 o1=x",
		"S1 o2=a",
		"S2 o0=b", "S2 o1=y",
		"S3 o0=a", "S3 o1=y",
		"S4 o2=b",
		"S5 o0=a", "S5 o1=x", "S5 o2=a",
	} {
		_ = d.Add(model.NewClaim(model.SourceID(cl[:2]), model.Obj(cl[3:5], "v"), cl[6:]))
	}
	d.Freeze()
	o := func(name string) model.ObjectID { return model.Obj(name, "v") }
	for name, tc := range map[string]struct {
		q       []model.ObjectID
		classes int
	}{
		"all":       {[]model.ObjectID{o("o0"), o("o1"), o("o2")}, 5},
		"reordered": {[]model.ObjectID{o("o2"), o("o1"), o("ghost"), o("o0"), o("o1")}, 5},
		"shared":    {[]model.ObjectID{o("o0"), o("o0")}, 1},
		"ghost":     {[]model.ObjectID{o("ghost")}, 0},
	} {
		if got := checkCandidates(t, d.Compiled(), sc, tc.q, "interleaved "+name); got != tc.classes {
			t.Errorf("interleaved %s: %d coverage classes, want %d", name, got, tc.classes)
		}
	}
}
