package probdb

import (
	"testing"

	"sourcecurrents/internal/model"
)

func xt(entity string, alts ...Alternative) XTuple {
	return XTuple{Object: model.Obj(entity, "v"), Alternatives: alts}
}

func TestXTupleValidate(t *testing.T) {
	good := xt("a", Alternative{"x", 0.6}, Alternative{"y", 0.4})
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := xt("a", Alternative{"x", 0.8}, Alternative{"y", 0.4})
	if bad.Validate() == nil {
		t.Fatal("over-unit mass accepted")
	}
	bad = xt("a", Alternative{"x", -0.1})
	if bad.Validate() == nil {
		t.Fatal("negative prob accepted")
	}
	bad = xt("a", Alternative{"x", 0.3}, Alternative{"x", 0.3})
	if bad.Validate() == nil {
		t.Fatal("duplicate value accepted")
	}
}

func TestXTupleTopAndProb(t *testing.T) {
	x := xt("a", Alternative{"y", 0.5}, Alternative{"x", 0.5})
	if x.Prob("y") != 0.5 || x.Prob("missing") != 0 {
		t.Fatal("Prob lookup wrong")
	}
}

func TestRelationPutGetSelect(t *testing.T) {
	r := NewRelation("test")
	if err := r.Put(xt("a", Alternative{"ullman", 0.9}, Alternative{"ulman", 0.1})); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(xt("b", Alternative{"ullman", 0.4}, Alternative{"widom", 0.6})); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(xt("c", Alternative{"x", 2})); err == nil {
		t.Fatal("invalid tuple accepted")
	}
	if got := r.Tuples[model.Obj("a", "v")]; got.Prob("ullman") != 0.9 {
		t.Fatalf("stored tuple = %+v", got)
	}
	if len(r.Tuples) != 2 {
		t.Fatalf("relation holds %d tuples, want 2", len(r.Tuples))
	}
}
