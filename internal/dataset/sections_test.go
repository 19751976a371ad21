package dataset

import (
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

// TestCompiledSectionsCorruption damages the stored string tables, re-sealing
// the container over each edit, and checks the open rejects it with
// ErrCorrupt at the offset check that names it, before any string is cut
// from the blob.
func TestCompiledSectionsCorruption(t *testing.T) {
	raw := encodeSnapshot(t, sectionWorld(t))

	cases := []struct {
		name    string
		corrupt func(m *snapio.Container)
		want    string
	}{
		{"srcOff-negative", func(m *snapio.Container) {
			off, _ := m.I32Section(SecSrcOff)
			off[1] = -1
		}, "srcOff not monotonic at 1"},
		{"srcOff-nonmonotonic", func(m *snapio.Container) {
			off, _ := m.I32Section(SecSrcOff)
			off[len(off)-1] = off[0]
		}, "srcOff not monotonic"},
		{"valOff-beyond-blob", func(m *snapio.Container) {
			off, _ := m.I32Section(SecValOff)
			off[len(off)-1] += 8
		}, "valOff ends at"},
		{"valOff-trailing-blob", func(m *snapio.Container) {
			off, _ := m.I32Section(SecValOff)
			off[len(off)-1]--
		}, "string blob has 1 trailing bytes"},
		{"objOff-wrong-base", func(m *snapio.Container) {
			off, _ := m.I32Section(SecObjOff)
			off[0]++
		}, "objOff must begin at"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantCorrupt(t, damaged(t, raw, tc.corrupt), tc.want)
		})
	}

	t.Run("missing-section", func(t *testing.T) {
		_, err := readSnapshot(rewritten(t, raw, SecStrBlob, func([]byte) []byte { return nil }))
		wantCorrupt(t, err, "string blob missing")
	})
}

// FuzzCompiledFromMapped drives the dataset open with arbitrary containers,
// each as given and with the container re-sealed: every outcome is a clean
// error or a dataset whose index reads safely, never a panic. Seeds live in
// testdata/fuzz.
func FuzzCompiledFromMapped(f *testing.F) {
	f.Add(encodeSnapshot(f, Table1()))
	f.Add(encodeSnapshot(f, sectionWorld(f)))
	raw := encodeSnapshot(f, sectionWorld(f))
	f.Add(raw[:len(raw)/2])
	f.Add(raw[:24])
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, data := range asGivenAndResealed(data) {
			m, err := snapio.OpenContainer(data, testDSMagic, 1)
			if err != nil {
				continue
			}
			d, err := FromSections(m)
			if err != nil {
				continue
			}
			// Walk every accessor: the open must have made these safe.
			for _, s := range d.Sources() {
				_ = d.ClaimsBySource(s)
			}
			for _, o := range d.Objects() {
				_ = d.ValuesFor(o)
			}
		}
	})
}
