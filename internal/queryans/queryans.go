// Package queryans implements online (top-k) query answering — the third
// application of §4: "rather than necessarily going to all data sources and
// then combining the retrieved answers, we want to visit the most promising
// sources and avoid going to sources dependent on, or having been copied
// by, the ones already visited."
//
// The planner probes sources one at a time. After each probe it refreshes
// the answer probabilities from the sources seen so far (accuracy-weighted,
// dependence-discounted voting) and records a step, so callers can plot
// answer quality against the number of sources probed (EX8). Ordering
// policies: dependence-aware greedy gain (the paper's proposal),
// accuracy×coverage (dependence-blind), and the source-id order baseline.
package queryans

import (
	"errors"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
)

// Policy selects the probing order.
type Policy int

const (
	// GreedyGain probes the source with the highest expected marginal
	// gain: accuracy × uncovered-coverage × independence from the sources
	// already probed.
	GreedyGain Policy = iota
	// AccuracyCoverage ignores dependence: accuracy × coverage.
	AccuracyCoverage
	// ByID probes in source-id order (the deterministic naive baseline).
	ByID
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case GreedyGain:
		return "greedy-gain"
	case AccuracyCoverage:
		return "accuracy-coverage"
	case ByID:
		return "by-id"
	}
	return "unknown"
}

// Config parameterizes the planner.
type Config struct {
	Policy Policy
	// Accuracy supplies per-source accuracies (e.g. from a depen run).
	// Sources missing from the map default to DefaultAccuracy.
	Accuracy        map[model.SourceID]float64
	DefaultAccuracy float64
	// Dependence returns the dependence probability of a pair (symmetric);
	// nil means all-independent.
	Dependence func(a, b model.SourceID) float64
	// CopyRate is the c used in vote discounting.
	CopyRate float64
	// N is the false-value space for vote weights.
	N int
	// MaxSources caps the probes (0 = all sources).
	MaxSources int
	// StopProb stops early once every query object's top value reaches
	// this posterior (0 disables early stopping).
	StopProb float64
}

// DefaultConfig returns the planner defaults.
func DefaultConfig() Config {
	return Config{
		Policy:          GreedyGain,
		DefaultAccuracy: 0.7,
		CopyRate:        0.8,
		N:               100,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.DefaultAccuracy <= 0 || c.DefaultAccuracy >= 1 {
		return errors.New("queryans: DefaultAccuracy must be in (0,1)")
	}
	if c.CopyRate <= 0 || c.CopyRate >= 1 {
		return errors.New("queryans: CopyRate must be in (0,1)")
	}
	if c.N < 1 {
		return errors.New("queryans: N must be >= 1")
	}
	if c.MaxSources < 0 {
		return errors.New("queryans: MaxSources must be >= 0")
	}
	if c.StopProb < 0 || c.StopProb >= 1 {
		return errors.New("queryans: StopProb must be in [0,1)")
	}
	return nil
}

// Answer is the current belief about one query object.
type Answer struct {
	Object model.ObjectID
	Value  string
	Prob   float64
}

// Step records the state after one probe.
type Step struct {
	Source  model.SourceID
	Gain    float64 // the planner's expected gain when it chose this source
	Answers []Answer
}

// Result is the full probing trace.
type Result struct {
	// Steps holds the answers after each probe; nil from Planner.Final,
	// which computes only where the probing ends.
	Steps []Step
	// Final holds the answers after the last probe.
	Final []Answer
	// Probed lists the sources in probe order.
	Probed []model.SourceID
}

// AnswerObjects probes sources to answer "what is the value of each query
// object", returning the step-by-step trace. It executes on the dataset's
// compiled columnar index via a one-shot Planner; the trace is bit-identical
// to the map-based reference (answerObjectsMaps, in reference_test.go),
// which the golden equivalence tests enforce. Callers issuing many queries against one
// dataset should build a Planner (or a session.Session) once instead.
func AnswerObjects(d *dataset.Dataset, query []model.ObjectID, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !d.Frozen() {
		return nil, errors.New("queryans: dataset must be frozen")
	}
	p, err := NewPlanner(d, cfg)
	if err != nil {
		return nil, err
	}
	return p.Answer(query)
}

func stable(answers []Answer, query []model.ObjectID, stopProb float64) bool {
	if len(answers) < len(query) {
		return false
	}
	for _, a := range answers {
		if a.Value == "" || a.Prob < stopProb {
			return false
		}
	}
	return true
}

// QualityCurve scores each step's answers against a ground-truth world,
// returning the fraction of query objects answered correctly after each
// probe — the series EX8 plots.
func QualityCurve(res *Result, w *model.World) []float64 {
	out := make([]float64, len(res.Steps))
	for i, st := range res.Steps {
		var right, total int
		for _, a := range st.Answers {
			want, ok := w.TrueNow(a.Object)
			if !ok {
				continue
			}
			total++
			if a.Value == want {
				right++
			}
		}
		if total > 0 {
			out[i] = float64(right) / float64(total)
		}
	}
	return out
}
