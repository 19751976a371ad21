package eval

import (
	"math"
	"strings"
	"testing"

	"sourcecurrents/internal/model"
)

func TestPairPRF(t *testing.T) {
	truth := map[model.SourcePair]bool{
		model.NewSourcePair("A", "B"): true,
		model.NewSourcePair("C", "D"): true,
	}
	detected := []model.SourcePair{
		model.NewSourcePair("A", "B"), // TP
		model.NewSourcePair("A", "B"), // duplicate, ignored
		model.NewSourcePair("E", "F"), // FP
	}
	prf := PairPRF(detected, truth)
	if prf.TP != 1 || prf.FP != 1 || prf.FN != 1 {
		t.Fatalf("counts: %+v", prf)
	}
	if math.Abs(prf.Precision-0.5) > 1e-12 || math.Abs(prf.Recall-0.5) > 1e-12 {
		t.Fatalf("P/R: %+v", prf)
	}
	if math.Abs(prf.F1-0.5) > 1e-12 {
		t.Fatalf("F1: %v", prf.F1)
	}
	// Degenerate cases.
	empty := PairPRF(nil, nil)
	if empty.Precision != 0 || empty.Recall != 0 || empty.F1 != 0 {
		t.Fatalf("empty PRF: %+v", empty)
	}
	perfect := PairPRF([]model.SourcePair{model.NewSourcePair("A", "B")},
		map[model.SourcePair]bool{model.NewSourcePair("A", "B"): true})
	if perfect.F1 != 1 {
		t.Fatalf("perfect F1 = %v", perfect.F1)
	}
}

func TestChosenAccuracy(t *testing.T) {
	w := model.NewWorld()
	w.SetSnapshot(model.Obj("a", "v"), "x")
	w.SetSnapshot(model.Obj("b", "v"), "y")
	chosen := map[model.ObjectID]string{
		model.Obj("a", "v"): "x",
		model.Obj("b", "v"): "wrong",
		model.Obj("c", "v"): "ignored", // not in world
	}
	if got := ChosenAccuracy(chosen, w); got != 0.5 {
		t.Fatalf("accuracy = %v", got)
	}
	if ChosenAccuracy(nil, w) != 0 {
		t.Fatal("empty chosen should be 0")
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("Demo", "name", "value")
	tab.AddRow("alpha", "1")
	tab.AddRowf("beta", 0.123456)
	tab.AddRow("gamma") // short row padded
	s := tab.String()
	if !strings.Contains(s, "Demo") || !strings.Contains(s, "alpha") {
		t.Fatalf("render missing content:\n%s", s)
	}
	if !strings.Contains(s, "0.123") {
		t.Fatalf("float formatting wrong:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	// Title + header + separator + 3 rows.
	if len(lines) != 6 {
		t.Fatalf("line count = %d:\n%s", len(lines), s)
	}
	// All data lines align to the same width structure: the separator row
	// is dashes only.
	if !strings.HasPrefix(lines[2], "-") {
		t.Fatalf("separator missing:\n%s", s)
	}
}

func TestSummarize(t *testing.T) {
	h := Summarize([]int{3, 1, 4, 1, 5})
	if h.Min != 1 || h.Max != 5 || h.N != 5 {
		t.Fatalf("summary: %+v", h)
	}
	if math.Abs(h.Mean-2.8) > 1e-12 {
		t.Fatalf("mean = %v", h.Mean)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatalf("empty summary: %+v", z)
	}
}
