package session

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/depen"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/snapio"
)

// deltaBytes returns s's delta frame since epoch since.
func deltaBytes(t testing.TB, s *Session, since int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteDelta(&buf, since); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stateBitsDiff compares two states field by field: the vectors and the
// totals table by float bit pattern, the pair records byte for byte, and how
// the solve ended.
func stateBitsDiff(got, want *depen.State) error {
	if err := bitsDiff("acc", got.Accuracy(), want.Accuracy()); err != nil {
		return err
	}
	if err := bitsDiff("probs", got.Posteriors(), want.Posteriors()); err != nil {
		return err
	}
	if err := bitsDiff("tot", got.Totals(), want.Totals()); err != nil {
		return err
	}
	if !bytes.Equal(got.PairBytes(), want.PairBytes()) {
		return fmt.Errorf("pair records differ")
	}
	if got.Rounds() != want.Rounds() || got.Converged() != want.Converged() {
		return fmt.Errorf("rounds/converged %d/%v, want %d/%v", got.Rounds(), got.Converged(), want.Rounds(), want.Converged())
	}
	return nil
}

// TestDeltaChainEquivalence has two replicas follow a primary through every
// schedule of TestStateChainEquivalence, from every kind of starting session:
// the primary appends each batch, one replica applies the primary's one-batch
// delta frame after every append, and the other applies a frame since its own
// epoch after every third append (and after the last), three batches at a
// time. At every epoch a replica reaches, its state is the primary's to the
// bit and its own delta frame since the same epoch is the primary's byte for
// byte; the epochs the second replica jumped over serve, through AsOf, as the
// primary's did; and at the end every retained epoch of both serves the same.
func TestDeltaChainEquivalence(t *testing.T) {
	for _, start := range chainStarts() {
		for _, par := range []int{1, 4} {
			start, par := start, par
			t.Run(fmt.Sprintf("%s/par%d", start.name, par), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
				cfg := DefaultConfig()
				cfg.RetainEpochs = -1
				primary, replica, jumper := start.open(t, cfg), start.open(t, cfg), start.open(t, cfg)
				first := primary.DatasetEpoch()
				follow := func(r *Session, e int) *Session {
					t.Helper()
					since := r.DatasetEpoch()
					frame := deltaBytes(t, primary, since)
					next, err := r.AppendDelta(frame)
					if err != nil {
						t.Fatalf("batch %d, since %d: %v", e, since, err)
					}
					if err := stateBitsDiff(next.st, primary.st); err != nil {
						t.Fatalf("batch %d, since %d: the replica's state differs: %v", e, since, err)
					}
					if !bytes.Equal(deltaBytes(t, next, since), frame) {
						t.Fatalf("batch %d, since %d: the replica's delta frame differs from the primary's", e, since)
					}
					for k := since + 1; k < next.DatasetEpoch(); k++ {
						got, err := next.AsOf(k)
						if err != nil {
							t.Fatal(err)
						}
						want, err := primary.AsOf(k)
						if err != nil {
							t.Fatal(err)
						}
						if err := stateBitsDiff(got.st, want.st); err != nil {
							t.Fatalf("batch %d: epoch %d, jumped over, differs: %v", e, k, err)
						}
						assertSessionsEqual(t, got, want)
					}
					return next
				}
				batches := growthBatches(rand.New(rand.NewSource(9)))
				for e, mk := range batches {
					next, err := primary.Append(mk(primary.Dataset()))
					if err != nil {
						t.Fatal(err)
					}
					primary = next
					replica = follow(replica, e)
					if (e+1)%3 == 0 || e == len(batches)-1 {
						jumper = follow(jumper, e)
					}
				}
				for e := first; e <= primary.DatasetEpoch(); e++ {
					ps, err := primary.AsOf(e)
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range []*Session{replica, jumper} {
						rs, err := r.AsOf(e)
						if err != nil {
							t.Fatal(err)
						}
						assertSessionsEqual(t, rs, ps)
					}
				}
			})
		}
	}
}

// deltaBase is the session the delta fuzz seeds apply to — Table 1's — and
// the chain of its successors: chain[0] across one batch by S3, the source
// whose pairs the batch dirties, then one claim by S1 and one by S2.
func deltaBase(t testing.TB) (base *Session, chain []*Session) {
	t.Helper()
	base, err := New(dataset.Table1(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	objs := base.Dataset().Objects()
	var batch []model.Claim
	for _, o := range objs[:3] {
		batch = append(batch, model.NewClaim("S3", o, "revised"))
	}
	cur := base
	for _, b := range [][]model.Claim{
		batch,
		{model.NewClaim("S1", objs[0], "later")},
		{model.NewClaim("S2", objs[1], "latest")},
	} {
		if cur, err = cur.Append(b); err != nil {
			t.Fatal(err)
		}
		chain = append(chain, cur)
	}
	return base, chain
}

// withDeltaSection rebuilds the delta frame raw with section id edited,
// sealed by the writer, so the damage reaches the checks behind the seal.
func withDeltaSection(t testing.TB, raw []byte, id uint32, edit func([]byte) []byte) []byte {
	t.Helper()
	m, err := snapio.OpenContainer(raw, DeltaMagic, DeltaVersion)
	if err != nil {
		t.Fatal(err)
	}
	var sw snapio.SectionWriter
	for _, k := range []uint32{secBatch, secAcc, secPost, secPairRec, secMeta} {
		b, _ := m.Section(k)
		if k == id {
			b = edit(bytes.Clone(b))
		}
		sw.Add(k, b)
	}
	var buf bytes.Buffer
	if err := sw.WriteTo(&buf, DeltaMagic, DeltaVersion); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sealFlipped returns a copy of the delta frame raw with byte at of section
// id flipped under the seal written for it.
func sealFlipped(t testing.TB, raw []byte, id uint32, at int) []byte {
	t.Helper()
	out := bytes.Clone(raw)
	m, err := snapio.OpenContainer(out, DeltaMagic, DeltaVersion)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := m.Section(id)
	b[at] ^= 0x10
	return out
}

// deltaFuzzSeeds are the checked-in seeds of FuzzApplyDelta: the first
// successor's delta frame damaged where AppendDelta on base must catch it —
// one byte flipped under the seal (crc-flip), the rest re-sealed so they reach
// the checks behind it — and a three-batch frame short of a batch (each fails
// with snapio.ErrCorrupt); and sound frames that apply to epoch 1, across one
// batch and across two (each fails with ErrDeltaEpoch).
// TestDeltaFuzzSeedsInSync keeps testdata/fuzz current.
func deltaFuzzSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	_, chain := deltaBase(t)
	raw := deltaBytes(t, chain[0], 0)
	i32 := binary.NativeEndian
	pairs := func(edit func(p []byte)) []byte {
		return withDeltaSection(t, raw, secPairRec, func(p []byte) []byte {
			if len(p) < 2*pairRecBytes {
				t.Fatal("the batch dirtied fewer than two analysed pairs")
			}
			edit(p)
			return p
		})
	}
	f64 := func(id uint32, edit func([]byte) []byte) []byte { return withDeltaSection(t, raw, id, edit) }
	var last bytes.Buffer
	if err := dataset.WriteSegment(&last, chain[2].Dataset().Batch()); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"pair-section-truncated": f64(secPairRec, func(p []byte) []byte { return p[:len(p)-8] }),
		"pair-without-dirty-member": pairs(func(p []byte) {
			// S1 and S2 are sources 0 and 1; the batch is S3's.
			i32.PutUint32(p, 0)
			i32.PutUint32(p[4:], 1)
		}),
		"pair-reversed": pairs(func(p []byte) {
			a, b := i32.Uint32(p), i32.Uint32(p[4:])
			i32.PutUint32(p, b)
			i32.PutUint32(p[4:], a)
		}),
		"pair-repeated":    pairs(func(p []byte) { copy(p[pairRecBytes:], p[:pairRecBytes]) }),
		"post-row-short":   f64(secPost, func(p []byte) []byte { return p[:len(p)-8] }),
		"post-row-long":    f64(secPost, func(p []byte) []byte { return append(p, p[:8]...) }),
		"acc-wrong-length": f64(secAcc, func(p []byte) []byte { return p[:len(p)-8] }),
		"crc-flip":         sealFlipped(t, raw, secAcc, 3),
		"batches-short": withDeltaSection(t, deltaBytes(t, chain[2], 0), secBatch, func(p []byte) []byte {
			return p[:len(p)-last.Len()]
		}),
		"wrong-epoch":    deltaBytes(t, chain[1], 1),
		"since-mismatch": deltaBytes(t, chain[2], 1),
	}
}

// TestDeltaFuzzSeedsInSync holds the checked-in seeds to deltaFuzzSeeds and
// each to its failure; run with REGEN_FUZZ_SEEDS=1 to rewrite them after a
// deliberate format change.
func TestDeltaFuzzSeedsInSync(t *testing.T) {
	base, _ := deltaBase(t)
	dir := filepath.Join("testdata", "fuzz", "FuzzApplyDelta")
	for name, seed := range deltaFuzzSeeds(t) {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		path := filepath.Join(dir, name)
		if os.Getenv("REGEN_FUZZ_SEEDS") == "1" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("%s is not the current seed; rerun with REGEN_FUZZ_SEEDS=1", path)
		}
		_, err = base.AppendDelta(seed)
		wantErr := snapio.ErrCorrupt
		switch name {
		case "wrong-epoch", "since-mismatch":
			wantErr = ErrDeltaEpoch
		case "crc-flip":
			wantErr = snapio.ErrChecksum
		}
		if !errors.Is(err, wantErr) {
			t.Fatalf("seed %s applies with %v, want %v", name, err, wantErr)
		}
	}
}

// TestDeltaRefusesTrailingBytes pins that a delta frame followed by bytes
// its container does not declare — which no seal covers — is refused with
// ErrCorrupt and applies nothing, while the frame itself applies.
func TestDeltaRefusesTrailingBytes(t *testing.T) {
	base, chain := deltaBase(t)
	raw := deltaBytes(t, chain[0], 0)
	if next, err := base.AppendDelta(raw); err != nil || next.DatasetEpoch() != 1 {
		t.Fatalf("the unpadded frame: %v; want epoch 1", err)
	}
	for _, pad := range []int{1, 8, 14} {
		padded := append(slices.Clone(raw), bytes.Repeat([]byte{0xA5}, pad)...)
		next, err := base.AppendDelta(padded)
		if !errors.Is(err, snapio.ErrCorrupt) || next != nil {
			t.Errorf("%d-byte frame + %d junk bytes: session %v, err %v; want ErrCorrupt", len(raw), pad, next, err)
		}
		if e := base.DatasetEpoch(); e != 0 {
			t.Errorf("%d junk bytes moved the receiver to epoch %d", pad, e)
		}
	}
}

// FuzzApplyDelta applies arbitrary bytes as a delta frame to Table 1's
// session: a classified error (ErrCorrupt, or ErrDeltaEpoch for a sound frame
// that applies to another epoch) or the successor the frame was taken of,
// never a panic, and the receiver untouched either way.
func FuzzApplyDelta(f *testing.F) {
	base, chain := deltaBase(f)
	raw := deltaBytes(f, chain[0], 0)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte(DeltaMagic))
	f.Add(deltaBytes(f, chain[2], 0))
	acc := slices.Clone(base.acc)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := base.AppendDelta(data)
		if err := bitsDiff("the receiver's accuracies", base.acc, acc); err != nil || base.DatasetEpoch() != 0 {
			t.Fatalf("the receiver changed: %v", err)
		}
		if err != nil {
			if !errors.Is(err, snapio.ErrCorrupt) && !errors.Is(err, ErrDeltaEpoch) {
				t.Fatalf("unclassified error: %v", err)
			}
			return
		}
		e := got.DatasetEpoch()
		if e < 1 || e > len(chain) {
			t.Fatalf("a frame applied to reach epoch %d", e)
		}
		if err := stateBitsDiff(got.st, chain[e-1].st); err != nil {
			t.Fatalf("a frame applied to a state the primary never solved: %v", err)
		}
	})
}

// TestEverySectionSealed flips one bit at the start, the middle and the end
// of every section of a snapshot, a delta frame and a log segment, and
// requires each to fail every reader of its container with ErrChecksum, with
// ErrCorrupt holding too. The world the sections were first found unsealed on
// gets the same probe: the low bit of the first byte of each state section
// of its snapshot. And two segments whose lengths are not multiples of 8,
// laid back to back, read one by one, and a delta carrying them applies.
func TestEverySectionSealed(t *testing.T) {
	base, chain := deltaBase(t)
	var seg bytes.Buffer
	if err := dataset.WriteSegment(&seg, chain[0].Dataset().Batch()); err != nil {
		t.Fatal(err)
	}
	loadSnapshot := map[string]func([]byte) error{
		"LoadSnapshot": func(b []byte) error { _, err := loadBytes(b, DefaultConfig()); return err },
		"LoadSnapshotFile": func(b []byte) error {
			_, err := loadFileErr(t, b, DefaultConfig())
			return err
		},
	}
	probe := snapshotBytes(t, benchWorld(t))
	for _, tc := range []struct {
		name    string
		raw     []byte
		magic   string
		version uint32
		ids     []uint32 // the sections to flip; nil for every one
		readers map[string]func([]byte) error
	}{
		{"snapshot", snapshotBytes(t, chain[2]), SnapshotMagic, SnapshotVersion, nil, loadSnapshot},
		{"delta", deltaBytes(t, chain[2], 0), DeltaMagic, DeltaVersion, nil, map[string]func([]byte) error{
			"AppendDelta": func(b []byte) error { _, err := base.AppendDelta(b); return err },
		}},
		{"segment", seg.Bytes(), dataset.SegmentMagic, dataset.SegmentVersion, nil, map[string]func([]byte) error{
			"ReadSegment": func(b []byte) error { _, err := dataset.ReadSegment(bytes.NewReader(b)); return err },
		}},
		{"probe", probe, SnapshotMagic, SnapshotVersion, []uint32{secAcc, secPost, secPairRec, secMeta}, loadSnapshot},
	} {
		m, err := snapio.OpenContainer(tc.raw, tc.magic, tc.version)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ids := tc.ids
		if ids == nil {
			for id := uint32(0); id < 128; id++ {
				if b, ok := m.Section(id); ok && len(b) > 0 {
					ids = append(ids, id)
				}
			}
		}
		for _, id := range ids {
			sec, _ := m.Section(id)
			at := []int{0, len(sec) / 2, len(sec) - 1}
			if tc.name == "probe" {
				at = at[:1] // the first byte, as the probe flipped it
			}
			for _, pos := range at {
				flipped := bytes.Clone(tc.raw)
				mut, err := snapio.OpenContainer(flipped, tc.magic, tc.version)
				if err != nil {
					t.Fatal(err)
				}
				b, _ := mut.Section(id)
				b[pos] ^= 1 << (pos % 8)
				for via, read := range tc.readers {
					if err := read(flipped); !errors.Is(err, snapio.ErrChecksum) || !errors.Is(err, snapio.ErrCorrupt) {
						t.Errorf("%s, section %d byte %d, %s: err = %v, want ErrChecksum and ErrCorrupt", tc.name, id, pos, via, err)
					}
				}
			}
		}
	}

	// Two batches whose segments end off the 8-byte grid: the value is
	// lengthened until each does.
	objs := base.Dataset().Objects()
	cur, value := base, "v"
	var segs bytes.Buffer
	var lens []int
	for k := 0; k < 2; k++ {
		for {
			var b bytes.Buffer
			batch := []model.Claim{model.NewClaim("S1", objs[k], value)}
			if err := dataset.WriteSegment(&b, batch); err != nil {
				t.Fatal(err)
			}
			value += "v"
			if b.Len()%8 == 0 {
				continue
			}
			next, err := cur.Append(batch)
			if err != nil {
				t.Fatal(err)
			}
			cur = next
			lens = append(lens, b.Len())
			segs.Write(b.Bytes())
			break
		}
	}
	rd := bytes.NewReader(segs.Bytes())
	for k := 0; k < 2; k++ {
		batch, err := dataset.ReadSegment(rd)
		if err != nil || !slices.Equal(batch, cur.Dataset().BatchAt(k+1)) {
			t.Fatalf("segment %d of %v bytes back to back: %v, %v", k, lens, batch, err)
		}
	}
	if rd.Len() != 0 {
		t.Fatalf("%d bytes left after two segments of %v bytes", rd.Len(), lens)
	}
	got, err := base.AppendDelta(deltaBytes(t, cur, 0))
	if err != nil {
		t.Fatalf("a delta of two segments of %v bytes: %v", lens, err)
	}
	if err := stateBitsDiff(got.st, cur.st); err != nil {
		t.Fatalf("a delta of two segments of %v bytes: %v", lens, err)
	}
}
