package dataset

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"sourcecurrents/internal/model"
	"sourcecurrents/internal/snapio"
)

const testDSMagic = "SCDSTEST"

// compiledSectionBytes writes c's section layout into a standalone test
// container.
func compiledSectionBytes(t testing.TB, c *Compiled) []byte {
	t.Helper()
	var sw snapio.SectionWriter
	if err := c.AppendSections(&sw); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sw.WriteTo(&buf, testDSMagic, 1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mappedCompiled(t testing.TB, raw []byte) (*snapio.Mapped, *Compiled) {
	t.Helper()
	m, err := snapio.OpenMappedBytes(raw, testDSMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompiledFromMapped(m)
	if err != nil {
		t.Fatal(err)
	}
	return m, c
}

// sectionWorld returns a compiled view with non-trivial span and popularity
// tables (timestamped claims, repeated values) so every section is
// exercised.
func sectionWorld(t testing.TB) *Compiled {
	t.Helper()
	d := New()
	claims := []model.Claim{
		model.NewTemporalClaim("S1", model.Obj("carey", "affiliation"), "BEA", 1),
		model.NewTemporalClaim("S1", model.Obj("carey", "affiliation"), "UCI", 5),
		model.NewTemporalClaim("S2", model.Obj("carey", "affiliation"), "UCI", 3),
		model.NewTemporalClaim("S2", model.Obj("dong", "affiliation"), "ATT", 2),
		model.NewTemporalClaim("S3", model.Obj("dong", "affiliation"), "MSR", 2),
		model.NewTemporalClaim("S3", model.Obj("carey", "affiliation"), "BEA", 4),
		model.NewTemporalClaim("S3", model.Obj("dong", "age"), "30", 1),
	}
	for _, cl := range claims {
		if err := d.Add(cl); err != nil {
			t.Fatal(err)
		}
	}
	d.Freeze()
	return d.Compiled()
}

// TestCompiledSectionsRoundTrip pins the zero-copy codec contract: a
// Compiled rebuilt from its mapped sections is observationally identical to
// the heap-built original — same CSR tables, same interned strings in the
// same order, same index lookups.
func TestCompiledSectionsRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *Compiled
	}{
		{"table1", Table1().Compiled()},
		{"timestamped", sectionWorld(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.c
			raw := compiledSectionBytes(t, want)
			_, got := mappedCompiled(t, raw)
			if !got.MappedBacked() || want.MappedBacked() {
				t.Fatal("backend flags wrong way around")
			}

			if got.NumSources() != want.NumSources() ||
				got.NumObjects() != want.NumObjects() ||
				got.NumValues() != want.NumValues() {
				t.Fatalf("shape %d/%d/%d, want %d/%d/%d",
					got.NumSources(), got.NumObjects(), got.NumValues(),
					want.NumSources(), want.NumObjects(), want.NumValues())
			}
			for i := 0; i < want.NumSources(); i++ {
				s := want.Source(i)
				if got.Source(i) != s {
					t.Fatalf("Source(%d) = %q, want %q", i, got.Source(i), s)
				}
				if gi, ok := got.SourceIndex(s); !ok || int(gi) != i {
					t.Fatalf("SourceIndex(%q) = %d,%v", s, gi, ok)
				}
			}
			if _, ok := got.SourceIndex("no-such-source"); ok {
				t.Fatal("SourceIndex found a source that does not exist")
			}
			for i := 0; i < want.NumObjects(); i++ {
				o := want.Object(i)
				if got.Object(i) != o {
					t.Fatalf("Object(%d) = %v, want %v", i, got.Object(i), o)
				}
				if gi, ok := got.ObjectIndex(o); !ok || int(gi) != i {
					t.Fatalf("ObjectIndex(%v) = %d,%v", o, gi, ok)
				}
			}
			if _, ok := got.ObjectIndex(model.Obj("zzz", "zzz")); ok {
				t.Fatal("ObjectIndex found an object that does not exist")
			}
			for i := 0; i < want.NumValues(); i++ {
				if got.Value(i) != want.Value(i) {
					t.Fatalf("Value(%d) = %q, want %q", i, got.Value(i), want.Value(i))
				}
			}
			if !reflect.DeepEqual(got.SourceIDs(), want.SourceIDs()) {
				t.Fatal("SourceIDs differ")
			}
			if !reflect.DeepEqual(got.ObjectIDs(), want.ObjectIDs()) {
				t.Fatal("ObjectIDs differ")
			}

			pairs := [][2][]int32{
				{got.GroupStart, want.GroupStart},
				{got.GroupValue, want.GroupValue},
				{got.GroupSrcStart, want.GroupSrcStart},
				{got.GroupSrc, want.GroupSrc},
				{got.SrcStart, want.SrcStart},
				{got.SrcObj, want.SrcObj},
				{got.SrcVal, want.SrcVal},
				{got.SrcGroup, want.SrcGroup},
				{got.SpanStart, want.SpanStart},
				{got.PopCount, want.PopCount},
			}
			for i, p := range pairs {
				// A zero-length mapped table decodes as nil; treat it as
				// equal to the heap side's empty slice.
				if len(p[0]) != len(p[1]) || (len(p[0]) > 0 && !reflect.DeepEqual(p[0], p[1])) {
					t.Fatalf("int32 table %d differs: %v vs %v", i, p[0], p[1])
				}
			}
			eq64 := func(a, b []int64) bool {
				return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
			}
			eqT := func(a, b []model.Time) bool {
				return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
			}
			if !eq64(got.SpanKey, want.SpanKey) ||
				!eqT(got.SpanFirst, want.SpanFirst) ||
				!eqT(got.SpanLast, want.SpanLast) ||
				!eq64(got.PopKey, want.PopKey) {
				t.Fatal("span/popularity tables differ")
			}
			if got.MaxGroupsPerObject() != want.MaxGroupsPerObject() {
				t.Fatalf("maxGroups %d, want %d",
					got.MaxGroupsPerObject(), want.MaxGroupsPerObject())
			}
		})
	}
}

// TestCompiledSectionsCorruption mutates mapped payload bytes — which the
// header CRC deliberately does not cover — and checks the structural
// validation pass classifies every mutation as ErrCorrupt instead of
// letting it become an out-of-bounds access later.
func TestCompiledSectionsCorruption(t *testing.T) {
	want := sectionWorld(t)
	raw := compiledSectionBytes(t, want)

	cases := []struct {
		name    string
		corrupt func(m *snapio.Mapped)
	}{
		{"srcOff-negative", func(m *snapio.Mapped) {
			off, _ := m.I32Section(SecSrcOff)
			off[1] = -1
		}},
		{"srcOff-nonmonotonic", func(m *snapio.Mapped) {
			off, _ := m.I32Section(SecSrcOff)
			off[len(off)-1] = off[0]
		}},
		{"valOff-beyond-blob", func(m *snapio.Mapped) {
			off, _ := m.I32Section(SecValOff)
			off[len(off)-1] += 8
		}},
		{"valOff-trailing-blob", func(m *snapio.Mapped) {
			off, _ := m.I32Section(SecValOff)
			off[len(off)-1]--
		}},
		{"objOff-wrong-base", func(m *snapio.Mapped) {
			off, _ := m.I32Section(SecObjOff)
			off[0]++
		}},
		{"groupstart-bad-base", func(m *snapio.Mapped) {
			tab, _ := m.I32Section(SecGroupStart)
			tab[0] = 1
		}},
		{"groupstart-nonmonotonic", func(m *snapio.Mapped) {
			tab, _ := m.I32Section(SecGroupStart)
			tab[1] = tab[len(tab)-1] + 5
		}},
		{"groupvalue-out-of-range", func(m *snapio.Mapped) {
			tab, _ := m.I32Section(SecGroupValue)
			tab[0] = int32(want.NumValues()) + 7
		}},
		{"srcobj-negative", func(m *snapio.Mapped) {
			tab, _ := m.I32Section(SecSrcObj)
			tab[0] = -3
		}},
		{"srcgroup-out-of-range", func(m *snapio.Mapped) {
			tab, _ := m.I32Section(SecSrcGroup)
			tab[len(tab)-1] = int32(len(want.GroupValue)) + 1
		}},
		// In range, but the two CSRs no longer index the same claims.
		{"srcgroup-of-another-object", func(m *snapio.Mapped) {
			tab, _ := m.I32Section(SecSrcGroup)
			tab[0] = int32(len(want.GroupValue)) - 1
		}},
		{"groupsrc-not-transpose", func(m *snapio.Mapped) {
			tab, _ := m.I32Section(SecGroupSrc)
			for k := range tab {
				tab[k] = 0
			}
		}},
		{"srcobj-repeated", func(m *snapio.Mapped) {
			start, _ := m.I32Section(SecSrcStart)
			tab, _ := m.I32Section(SecSrcObj)
			for s := 0; s+1 < len(start); s++ {
				if k := start[s]; start[s+1]-k >= 2 {
					tab[k+1] = tab[k]
					return
				}
			}
			t.Fatal("no source makes two claims")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := snapio.OpenMappedBytes(append([]byte(nil), raw...), testDSMagic, 1)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(m)
			if _, err := CompiledFromMapped(m); !errors.Is(err, snapio.ErrCorrupt) {
				t.Fatalf("CompiledFromMapped = %v, want ErrCorrupt", err)
			}
		})
	}

	t.Run("missing-section", func(t *testing.T) {
		var sw snapio.SectionWriter
		if err := want.AppendSections(&sw); err != nil {
			t.Fatal(err)
		}
		// Rebuild the container without the string blob.
		m, err := snapio.OpenMappedBytes(raw, testDSMagic, 1)
		if err != nil {
			t.Fatal(err)
		}
		var sw2 snapio.SectionWriter
		for id := SecGroupStart; id <= SecValOff; id++ {
			if id == SecStrBlob {
				continue
			}
			if b, ok := m.Section(id); ok {
				sw2.Add(id, b)
			}
		}
		var buf bytes.Buffer
		if err := sw2.WriteTo(&buf, testDSMagic, 1); err != nil {
			t.Fatal(err)
		}
		m2, err := snapio.OpenMappedBytes(buf.Bytes(), testDSMagic, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CompiledFromMapped(m2); !errors.Is(err, snapio.ErrCorrupt) {
			t.Fatalf("CompiledFromMapped without blob = %v, want ErrCorrupt", err)
		}
	})
}

// FuzzCompiledFromMapped drives the section validator with arbitrary
// containers: every outcome is a clean error or a structurally safe
// Compiled, never a panic. Seeds live in testdata/fuzz.
func FuzzCompiledFromMapped(f *testing.F) {
	f.Add(compiledSectionBytes(f, Table1().Compiled()))
	f.Add(compiledSectionBytes(f, sectionWorld(f)))
	raw := compiledSectionBytes(f, sectionWorld(f))
	f.Add(raw[:len(raw)/2])
	f.Add(raw[:24])
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := snapio.OpenMappedBytes(data, testDSMagic, 1)
		if err != nil {
			return
		}
		c, err := CompiledFromMapped(m)
		if err != nil {
			return
		}
		// Walk every accessor: validation must have made these safe.
		for i := 0; i < c.NumSources(); i++ {
			_ = c.Source(i)
		}
		for i := 0; i < c.NumObjects(); i++ {
			_ = c.Object(i)
		}
		for i := 0; i < c.NumValues(); i++ {
			_ = c.Value(i)
		}
	})
}
