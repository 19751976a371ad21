// Package model defines the data model of §2.1 of the paper.
//
// A structured data source provides a set of 4-tuples (id, value, time,
// prob): identifier id carries value v at time t with probability p. The
// identifier encapsulates entity and attribute (for a relational cell it
// would be table/record/column); values are opaque strings after record
// linkage has normalized representations; time may be absent (snapshot
// data); probability defaults to 1 when the source does not qualify its
// claims.
package model

import (
	"fmt"
	"sort"
)

// SourceID identifies a data source (a bookstore, a website, a rater).
type SourceID string

// ObjectID identifies a data item: an (entity, attribute) pair such as
// ("Dong", "affiliation") or (ISBN, "authors"). Object is the paper's
// "identifier" d_i.
type ObjectID struct {
	Entity    string
	Attribute string
}

// String renders the object as "entity.attribute".
func (o ObjectID) String() string { return o.Entity + "." + o.Attribute }

// Obj is shorthand for constructing an ObjectID.
func Obj(entity, attribute string) ObjectID {
	return ObjectID{Entity: entity, Attribute: attribute}
}

// Time is a discrete timestamp. The paper's model does not fix a
// granularity; experiments use years (Table 3) or abstract ticks. A zero
// Time together with HasTime=false on a Claim means "snapshot only".
type Time int64

// Claim is the paper's 4-tuple: source S claims that object O has value V
// at time T with probability P.
type Claim struct {
	Source  SourceID
	Object  ObjectID
	Value   string
	Time    Time
	HasTime bool
	Prob    float64 // claimed probability; 1 when the source is categorical
}

// NewClaim builds a snapshot claim with probability 1.
func NewClaim(source SourceID, object ObjectID, value string) Claim {
	return Claim{Source: source, Object: object, Value: value, Prob: 1}
}

// NewTemporalClaim builds a timestamped claim with probability 1.
func NewTemporalClaim(source SourceID, object ObjectID, value string, t Time) Claim {
	return Claim{Source: source, Object: object, Value: value, Time: t, HasTime: true, Prob: 1}
}

// Validate reports structural problems with the claim.
func (c Claim) Validate() error {
	if c.Source == "" {
		return fmt.Errorf("model: claim %v has empty source", c)
	}
	if c.Object.Entity == "" {
		return fmt.Errorf("model: claim by %s has empty entity", c.Source)
	}
	if c.Prob < 0 || c.Prob > 1 {
		return fmt.Errorf("model: claim %s/%s has probability %v outside [0,1]",
			c.Source, c.Object, c.Prob)
	}
	return nil
}

// String renders the claim for logs and CLIs.
func (c Claim) String() string {
	if c.HasTime {
		return fmt.Sprintf("%s: %s=%q @%d (p=%.2f)", c.Source, c.Object, c.Value, c.Time, c.Prob)
	}
	return fmt.Sprintf("%s: %s=%q (p=%.2f)", c.Source, c.Object, c.Value, c.Prob)
}

// Truth records the ground-truth value of an object, possibly evolving over
// time. Periods are sorted by start time; each value holds from its Start
// until the next period's Start (the last one holds forever). For snapshot
// worlds there is a single period.
type Truth struct {
	Object  ObjectID
	Periods []TruthPeriod
}

// TruthPeriod is one constant-value interval of an object's history.
type TruthPeriod struct {
	Start Time
	Value string
}

// NewSnapshotTruth builds a truth with a single eternal value.
func NewSnapshotTruth(object ObjectID, value string) Truth {
	return Truth{Object: object, Periods: []TruthPeriod{{Value: value}}}
}

// ValueAt returns the true value at time t, and false if t precedes the
// first period.
func (tr Truth) ValueAt(t Time) (string, bool) {
	idx := -1
	for i, p := range tr.Periods {
		if p.Start <= t {
			idx = i
		} else {
			break
		}
	}
	if idx < 0 {
		return "", false
	}
	return tr.Periods[idx].Value, true
}

// Current returns the latest true value; false for an empty truth.
func (tr Truth) Current() (string, bool) {
	if len(tr.Periods) == 0 {
		return "", false
	}
	return tr.Periods[len(tr.Periods)-1].Value, true
}

// EverTrue reports whether v was the true value during any period. The
// temporal solver uses it to separate out-of-date values (once true) from
// false values (never true) — the distinction Example 3.2 turns on.
func (tr Truth) EverTrue(v string) bool {
	for _, p := range tr.Periods {
		if p.Value == v {
			return true
		}
	}
	return false
}

// Normalize sorts periods by start time and drops consecutive duplicates.
func (tr *Truth) Normalize() {
	sort.SliceStable(tr.Periods, func(i, j int) bool {
		return tr.Periods[i].Start < tr.Periods[j].Start
	})
	out := tr.Periods[:0]
	for _, p := range tr.Periods {
		if len(out) == 0 || out[len(out)-1].Value != p.Value {
			out = append(out, p)
		}
	}
	tr.Periods = out
}

// World is a ground-truth assignment for a set of objects. It is produced
// by the synthetic generators and consumed by the evaluation harness; the
// discovery algorithms never see it.
type World struct {
	Truths map[ObjectID]Truth
}

// NewWorld returns an empty world.
func NewWorld() *World { return &World{Truths: map[ObjectID]Truth{}} }

// SetSnapshot records a single eternal true value for object o.
func (w *World) SetSnapshot(o ObjectID, value string) {
	w.Truths[o] = NewSnapshotTruth(o, value)
}

// Set records a full temporal truth.
func (w *World) Set(tr Truth) {
	tr.Normalize()
	w.Truths[tr.Object] = tr
}

// TrueNow returns the latest true value of o.
func (w *World) TrueNow(o ObjectID) (string, bool) {
	tr, ok := w.Truths[o]
	if !ok {
		return "", false
	}
	return tr.Current()
}

// SortObjects sorts ids by (entity, attribute) for deterministic iteration.
func SortObjects(ids []ObjectID) {
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Entity != ids[j].Entity {
			return ids[i].Entity < ids[j].Entity
		}
		return ids[i].Attribute < ids[j].Attribute
	})
}

// SortSources sorts source ids lexicographically.
func SortSources(ids []SourceID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// SourcePair is an unordered pair of sources, normalized so A < B. Pairwise
// dependence is reported on these.
type SourcePair struct {
	A, B SourceID
}

// NewSourcePair returns the normalized pair.
func NewSourcePair(a, b SourceID) SourcePair {
	if b < a {
		a, b = b, a
	}
	return SourcePair{A: a, B: b}
}

// String renders the pair as "A~B".
func (p SourcePair) String() string { return string(p.A) + "~" + string(p.B) }
