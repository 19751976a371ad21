// Package probdb is a small probabilistic-database substrate.
//
// §4 of the paper observes that data fusion can "identify a probabilistic
// distribution of possible values for each object and generate a
// probabilistic database", and that answering queries over probabilistic
// data "assumes independence of sources ... removing the independence
// assumption can significantly change the computation of the probabilities
// of the answer tuples". This package holds the probabilistic output that
// fusion materializes: x-tuples (disjoint alternatives per object), checked
// as they are stored into a relation. The probabilities are the fusion
// strategy's posteriors; combining evidence is the solvers' job, not this
// package's.
package probdb

import (
	"fmt"

	"sourcecurrents/internal/model"
)

// Alternative is one possible value of an x-tuple with its probability.
type Alternative struct {
	Value string
	Prob  float64
}

// XTuple is a disjoint set of alternatives for one object; probabilities
// sum to at most 1 (the remainder is "no value").
type XTuple struct {
	Object       model.ObjectID
	Alternatives []Alternative
}

// Validate checks probability constraints.
func (x XTuple) Validate() error {
	var sum float64
	seen := map[string]bool{}
	for _, a := range x.Alternatives {
		if a.Prob < 0 || a.Prob > 1+1e-9 {
			return fmt.Errorf("probdb: %v alternative %q prob %v out of range", x.Object, a.Value, a.Prob)
		}
		if seen[a.Value] {
			return fmt.Errorf("probdb: %v duplicate alternative %q", x.Object, a.Value)
		}
		seen[a.Value] = true
		sum += a.Prob
	}
	if sum > 1+1e-6 {
		return fmt.Errorf("probdb: %v alternatives sum to %v > 1", x.Object, sum)
	}
	return nil
}

// Prob returns the probability of a specific value.
func (x XTuple) Prob(value string) float64 {
	for _, a := range x.Alternatives {
		if a.Value == value {
			return a.Prob
		}
	}
	return 0
}

// Relation is a set of x-tuples keyed by object.
type Relation struct {
	Name   string
	Tuples map[model.ObjectID]XTuple
}

// NewRelation returns an empty relation.
func NewRelation(name string) *Relation {
	return &Relation{Name: name, Tuples: map[model.ObjectID]XTuple{}}
}

// Put validates and stores an x-tuple.
func (r *Relation) Put(x XTuple) error {
	if err := x.Validate(); err != nil {
		return err
	}
	r.Tuples[x.Object] = x
	return nil
}
