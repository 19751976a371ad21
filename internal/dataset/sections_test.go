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

// openedCompiled opens raw with FromSections and returns the index it laid
// out.
func openedCompiled(t testing.TB, raw []byte) *Compiled {
	t.Helper()
	m, err := snapio.OpenContainer(raw, testDSMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := FromSections(m)
	if err != nil {
		t.Fatal(err)
	}
	return d.Compiled()
}

// sectionWorld returns a dataset with non-trivial span and popularity tables
// (timestamped claims, repeated values) so every section is exercised.
func sectionWorld(t testing.TB) *Dataset {
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
	return d
}

// TestCompiledSectionsRoundTrip pins the codec contract: the Compiled
// FromSections lays out over a dataset's sections is the one the dataset was
// built with, in every field — tables, index maps and columns.
func TestCompiledSectionsRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    *Dataset
	}{
		{"table1", Table1()},
		{"timestamped", sectionWorld(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.d.Compiled()
			got := openedCompiled(t, encodeSnapshot(t, tc.d))
			if !reflect.DeepEqual(got, want) {
				t.Fatal("the opened index differs from the built one")
			}
			for i := 0; i < want.NumSources(); i++ {
				if gi, ok := got.SourceIndex(want.Source(i)); !ok || int(gi) != i {
					t.Fatalf("SourceIndex(%q) = %d,%v", want.Source(i), gi, ok)
				}
			}
			if _, ok := got.SourceIndex("no-such-source"); ok {
				t.Fatal("SourceIndex found a source that does not exist")
			}
			if _, ok := got.ObjectIndex(model.Obj("zzz", "zzz")); ok {
				t.Fatal("ObjectIndex found an object that does not exist")
			}
		})
	}
}

// TestCompiledSectionsCorruption mutates stored table bytes — which the
// header CRC deliberately does not cover — and checks the open classifies
// every mutation as ErrCorrupt: a damaged offset table before any string is
// cut from the blob, a damaged layout table because it is not the one the
// claim log indexes to.
func TestCompiledSectionsCorruption(t *testing.T) {
	d := sectionWorld(t)
	want := d.Compiled()
	raw := encodeSnapshot(t, d)

	cases := []struct {
		name    string
		corrupt func(m *snapio.Container)
	}{
		{"srcOff-negative", func(m *snapio.Container) {
			off, _ := m.I32Section(SecSrcOff)
			off[1] = -1
		}},
		{"srcOff-nonmonotonic", func(m *snapio.Container) {
			off, _ := m.I32Section(SecSrcOff)
			off[len(off)-1] = off[0]
		}},
		{"valOff-beyond-blob", func(m *snapio.Container) {
			off, _ := m.I32Section(SecValOff)
			off[len(off)-1] += 8
		}},
		{"valOff-trailing-blob", func(m *snapio.Container) {
			off, _ := m.I32Section(SecValOff)
			off[len(off)-1]--
		}},
		{"objOff-wrong-base", func(m *snapio.Container) {
			off, _ := m.I32Section(SecObjOff)
			off[0]++
		}},
		{"groupstart-bad-base", func(m *snapio.Container) {
			tab, _ := m.I32Section(SecGroupStart)
			tab[0] = 1
		}},
		{"groupstart-nonmonotonic", func(m *snapio.Container) {
			tab, _ := m.I32Section(SecGroupStart)
			tab[1] = tab[len(tab)-1] + 5
		}},
		{"groupvalue-out-of-range", func(m *snapio.Container) {
			tab, _ := m.I32Section(SecGroupValue)
			tab[0] = int32(want.NumValues()) + 7
		}},
		{"srcobj-negative", func(m *snapio.Container) {
			tab, _ := m.I32Section(SecSrcObj)
			tab[0] = -3
		}},
		{"srcgroup-out-of-range", func(m *snapio.Container) {
			tab, _ := m.I32Section(SecSrcGroup)
			tab[len(tab)-1] = int32(len(want.GroupValue)) + 1
		}},
		// In range, but the two CSRs no longer index the same claims.
		{"srcgroup-of-another-object", func(m *snapio.Container) {
			tab, _ := m.I32Section(SecSrcGroup)
			tab[0] = int32(len(want.GroupValue)) - 1
		}},
		{"groupsrc-not-transpose", func(m *snapio.Container) {
			tab, _ := m.I32Section(SecGroupSrc)
			for k := range tab {
				tab[k] = 0
			}
		}},
		{"srcobj-repeated", func(m *snapio.Container) {
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
			m, err := snapio.OpenContainer(append([]byte(nil), raw...), testDSMagic, 1)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(m)
			if _, err := FromSections(m); !errors.Is(err, snapio.ErrCorrupt) {
				t.Fatalf("FromSections = %v, want ErrCorrupt", err)
			}
		})
	}

	t.Run("missing-section", func(t *testing.T) {
		// Rebuild the container without the string blob.
		m, err := snapio.OpenContainer(raw, testDSMagic, 1)
		if err != nil {
			t.Fatal(err)
		}
		var sw2 snapio.SectionWriter
		for id := SecGroupStart; id < SecCompiledEnd; id++ {
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
		m2, err := snapio.OpenContainer(buf.Bytes(), testDSMagic, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := FromSections(m2); !errors.Is(err, snapio.ErrCorrupt) {
			t.Fatalf("FromSections without blob = %v, want ErrCorrupt", err)
		}
	})
}

// FuzzCompiledFromMapped drives the dataset open with arbitrary containers:
// every outcome is a clean error or a dataset whose index reads safely, never
// a panic. Seeds live in testdata/fuzz.
func FuzzCompiledFromMapped(f *testing.F) {
	f.Add(encodeSnapshot(f, Table1()))
	f.Add(encodeSnapshot(f, sectionWorld(f)))
	raw := encodeSnapshot(f, sectionWorld(f))
	f.Add(raw[:len(raw)/2])
	f.Add(raw[:24])
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := snapio.OpenContainer(data, testDSMagic, 1)
		if err != nil {
			return
		}
		d, err := FromSections(m)
		if err != nil {
			return
		}
		// Walk every accessor: the open must have made these safe.
		for _, s := range d.Sources() {
			_ = d.ClaimsBySource(s)
		}
		for _, o := range d.Objects() {
			_ = d.ValuesFor(o)
		}
	})
}
