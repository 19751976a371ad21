package temporal

import (
	"errors"
	"sort"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/engine"
	"sourcecurrents/internal/model"
)

// This file implements the paper's "discover dependence patterns of a data
// source over time" consideration: a copier is more likely to remain a
// copier, and it may copy periodically from the same sources. Windowed
// detection re-runs the pairwise analysis over sliding time windows and
// summarizes how persistent each pair's dependence is.

// WindowedConfig parameterizes DetectOverWindows.
type WindowedConfig struct {
	// Pair is the per-window detection configuration.
	Pair Config
	// WindowSpan is the width of each analysis window; Step the stride.
	WindowSpan, Step model.Time
}

// DefaultWindowedConfig covers a trace in four to six windows with 50%
// overlap given a horizon around 40-60 ticks.
func DefaultWindowedConfig() WindowedConfig {
	return WindowedConfig{
		Pair:       DefaultConfig(),
		WindowSpan: 20,
		Step:       10,
	}
}

// Validate reports configuration errors.
func (c WindowedConfig) Validate() error {
	if err := c.Pair.Validate(); err != nil {
		return err
	}
	if c.WindowSpan < 1 {
		return errors.New("temporal: WindowSpan must be >= 1")
	}
	if c.Step < 1 {
		return errors.New("temporal: Step must be >= 1")
	}
	return nil
}

// WindowVerdict is one pair's posterior within one window.
type WindowVerdict struct {
	Start, End model.Time
	Prob       float64
	Analyzed   bool // false when the pair lacked shared updates here
}

// PairHistory summarizes a pair's dependence over time.
type PairHistory struct {
	Pair    model.SourcePair
	Windows []WindowVerdict
	// Persistence is the fraction of analyzed windows with posterior at or
	// above the detection threshold — "a copier is more likely to remain a
	// copier".
	Persistence float64
	// MeanProb is the mean posterior over analyzed windows.
	MeanProb float64
}

// WindowedResult aggregates all pairs' histories.
type WindowedResult struct {
	Histories []PairHistory
}

// History returns the history for a pair, if analyzed anywhere.
func (r *WindowedResult) History(a, b model.SourceID) (PairHistory, bool) {
	p := model.NewSourcePair(a, b)
	for _, h := range r.Histories {
		if h.Pair == p {
			return h, true
		}
	}
	return PairHistory{}, false
}

// DetectOverWindows slices the dataset's time range into overlapping
// windows and runs pairwise detection in each, summarizing persistence.
func DetectOverWindows(d *dataset.Dataset, cfg WindowedConfig) (*WindowedResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !d.Frozen() {
		return nil, errors.New("temporal: dataset must be frozen")
	}
	lo, hi, ok := d.TimeRange()
	if !ok {
		return nil, errors.New("temporal: dataset has no timestamped claims")
	}
	// Enumerate window starts up front so the windows — each an independent
	// slice-and-detect — can run in parallel; the merge below walks them in
	// time order, keeping the result identical to the sequential loop.
	var starts []model.Time
	for start := lo; start <= hi; start += cfg.Step {
		starts = append(starts, start)
		if start+cfg.WindowSpan > hi {
			break
		}
	}
	type windowOut struct {
		verdicts map[model.SourcePair]float64
		err      error
	}
	outs := engine.MapObjects(starts, func(start model.Time) windowOut {
		sub, err := sliceWindow(d, start, start+cfg.WindowSpan)
		if err != nil {
			return windowOut{err: err}
		}
		if sub.Len() == 0 {
			return windowOut{}
		}
		res, err := DetectPairs(sub, cfg.Pair)
		if err != nil {
			return windowOut{err: err}
		}
		verdicts := make(map[model.SourcePair]float64, len(res.AllPairs))
		for _, dep := range res.AllPairs {
			verdicts[dep.Pair] = dep.Prob
		}
		return windowOut{verdicts: verdicts}
	})
	acc := map[model.SourcePair][]WindowVerdict{}
	for i, start := range starts {
		if outs[i].err != nil {
			return nil, outs[i].err
		}
		for p, prob := range outs[i].verdicts {
			acc[p] = append(acc[p], WindowVerdict{Start: start, End: start + cfg.WindowSpan, Prob: prob, Analyzed: true})
		}
	}
	res := &WindowedResult{}
	pairs := make([]model.SourcePair, 0, len(acc))
	for p := range acc {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].String() < pairs[j].String() })
	for _, p := range pairs {
		h := PairHistory{Pair: p, Windows: acc[p]}
		var flagged, analyzed int
		var sum float64
		for _, w := range h.Windows {
			if !w.Analyzed {
				continue
			}
			analyzed++
			sum += w.Prob
			if w.Prob >= cfg.Pair.DepThreshold {
				flagged++
			}
		}
		if analyzed > 0 {
			h.Persistence = float64(flagged) / float64(analyzed)
			h.MeanProb = sum / float64(analyzed)
		}
		res.Histories = append(res.Histories, h)
	}
	return res, nil
}

// sliceWindow projects the dataset to claims with Time in [start, end).
func sliceWindow(d *dataset.Dataset, start, end model.Time) (*dataset.Dataset, error) {
	out := dataset.New()
	for _, c := range d.Claims() {
		if !c.HasTime || c.Time < start || c.Time >= end {
			continue
		}
		if err := out.Add(c); err != nil {
			return nil, err
		}
	}
	out.Freeze()
	return out, nil
}
