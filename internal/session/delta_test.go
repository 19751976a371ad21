package session

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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

// withDeltaSection rebuilds the delta frame raw with section id edited; with
// sum it recomputes the CRC, so the damage reaches the checks past it.
func withDeltaSection(t testing.TB, raw []byte, id uint32, sum bool, edit func([]byte) []byte) []byte {
	t.Helper()
	m, err := snapio.OpenContainer(raw, DeltaMagic, DeltaVersion)
	if err != nil {
		t.Fatal(err)
	}
	data := map[uint32][]byte{}
	for _, k := range append(deltaSections, secCRC) {
		b, _ := m.Section(k)
		data[k] = bytes.Clone(b)
	}
	data[id] = edit(data[id])
	if sum {
		var crc uint32
		for _, k := range deltaSections {
			crc = crc32.Update(crc, crc32.IEEETable, data[k])
		}
		data[secCRC] = binary.LittleEndian.AppendUint32(nil, crc)
	}
	var sw snapio.SectionWriter
	for _, k := range append(deltaSections, secCRC) {
		sw.Add(k, data[k])
	}
	var buf bytes.Buffer
	if err := sw.WriteTo(&buf, DeltaMagic, DeltaVersion); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// deltaFuzzSeeds are the checked-in seeds of FuzzApplyDelta: the first
// successor's delta frame damaged where AppendDelta on base must catch it,
// and a three-batch frame short of a batch (each fails with
// snapio.ErrCorrupt); and sound frames that apply to epoch 1, across one
// batch and across two (each fails with ErrDeltaEpoch).
// TestDeltaFuzzSeedsInSync keeps testdata/fuzz current.
func deltaFuzzSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	_, chain := deltaBase(t)
	raw := deltaBytes(t, chain[0], 0)
	i32 := binary.NativeEndian
	pairs := func(edit func(p []byte)) []byte {
		return withDeltaSection(t, raw, secPairRec, true, func(p []byte) []byte {
			if len(p) < 2*pairRecBytes {
				t.Fatal("the batch dirtied fewer than two analysed pairs")
			}
			edit(p)
			return p
		})
	}
	f64 := func(id uint32, edit func([]byte) []byte) []byte { return withDeltaSection(t, raw, id, true, edit) }
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
		"crc-flip": withDeltaSection(t, raw, secAcc, false, func(p []byte) []byte {
			p[3] ^= 0x10
			return p
		}),
		"batches-short": withDeltaSection(t, deltaBytes(t, chain[2], 0), secBatch, true, func(p []byte) []byte {
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
		if name == "wrong-epoch" || name == "since-mismatch" {
			wantErr = ErrDeltaEpoch
		}
		if !errors.Is(err, wantErr) {
			t.Fatalf("seed %s applies with %v, want %v", name, err, wantErr)
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
