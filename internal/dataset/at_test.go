package dataset

import (
	"reflect"
	"testing"

	"sourcecurrents/internal/model"
)

// TestAt pins epoch navigation over the append log: At(e) is equivalent to
// the predecessor that served epoch e — same claims, same index, same epoch
// and bounds — At(Epoch()) is the receiver itself, and out-of-range epochs
// are errors.
func TestAt(t *testing.T) {
	all := testClaims(60)
	d0, err := FromClaims(all[:30])
	if err != nil {
		t.Fatal(err)
	}
	d1, err := d0.Append(all[30:45])
	if err != nil {
		t.Fatal(err)
	}
	d2, err := d1.Append(all[45:])
	if err != nil {
		t.Fatal(err)
	}
	for e, want := range []*Dataset{d0, d1, d2} {
		got, err := d2.At(e)
		if err != nil {
			t.Fatalf("At(%d): %v", e, err)
		}
		assertDatasetsEquivalent(t, got, want)
		if got.Epoch() != e || !reflect.DeepEqual(got.LogBounds(), want.LogBounds()) ||
			!reflect.DeepEqual(got.Batch(), want.Batch()) {
			t.Fatalf("At(%d): epoch %d, bounds %v, %d-claim batch; want %d, %v, %d", e,
				got.Epoch(), got.LogBounds(), len(got.Batch()), e, want.LogBounds(), len(want.Batch()))
		}
	}
	if got, err := d2.At(2); err != nil || got != d2 {
		t.Fatalf("At(Epoch()) = %v, %v; want the receiver", got, err)
	}
	// BatchAt(e) is the batch that reached epoch e, from any later dataset.
	for e, want := range map[int][]model.Claim{1: all[30:45], 2: all[45:]} {
		if got := d2.BatchAt(e); !reflect.DeepEqual(got, want) {
			t.Fatalf("BatchAt(%d) = %d claims, want %d", e, len(got), len(want))
		}
	}
	if d2.BatchAt(0) != nil || d2.BatchAt(3) != nil || d1.BatchAt(2) != nil {
		t.Fatal("BatchAt outside [1, Epoch()] returned a batch")
	}
	// At is relative to the receiver, not the newest dataset over the log.
	got, err := d1.At(0)
	if err != nil {
		t.Fatal(err)
	}
	assertDatasetsEquivalent(t, got, d0)
	if _, err := d2.At(-1); err == nil {
		t.Fatal("At(-1) accepted")
	}
	if _, err := d2.At(3); err == nil {
		t.Fatal("At above the receiver's epoch accepted")
	}
	// A flat dataset addresses only itself.
	if got, err := d0.At(0); err != nil || got != d0 {
		t.Fatalf("flat At(0) = %v, %v", got, err)
	}
}

// TestAtAfterSnapshotRoundTrip pins that the snapshot log keeps every epoch
// addressable: a reloaded dataset answers At(e) for each epoch with state
// equivalent to the original predecessor.
func TestAtAfterSnapshotRoundTrip(t *testing.T) {
	all := testClaims(60)
	d0, err := FromClaims(all[:30])
	if err != nil {
		t.Fatal(err)
	}
	d1, err := d0.Append(all[30:50])
	if err != nil {
		t.Fatal(err)
	}
	d2, err := d1.Append(all[50:])
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := readSnapshot(encodeSnapshot(t, d2))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Epoch() != 2 {
		t.Fatalf("loaded epoch = %d, want 2", loaded.Epoch())
	}
	for e, want := range []*Dataset{d0, d1, d2} {
		got, err := loaded.At(e)
		if err != nil {
			t.Fatalf("loaded At(%d): %v", e, err)
		}
		assertDatasetsEquivalent(t, got, want)
	}
}
