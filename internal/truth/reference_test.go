package truth

import (
	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
)

// accuMaps is the map-based reference implementation of Accu: the semantic
// specification the compiled path is tested against (golden_test.go).
func accuMaps(d *dataset.Dataset, cfg Config) (*Result, error) {
	acc := make(map[model.SourceID]float64, len(d.Sources()))
	for _, s := range d.Sources() {
		acc[s] = cfg.InitialAccuracy
	}
	res := &Result{}
	objects := d.Objects()
	for round := 1; round <= cfg.MaxRounds; round++ {
		probs := make(map[model.ObjectID]map[string]float64, len(objects))
		for _, o := range objects {
			scores := ScoreValues(d.ValuesFor(o), acc, cfg.N, nil)
			scores = ApplySimilarity(scores, cfg.ValueSim, cfg.ValueSimWeight)
			probs[o] = cfg.ApplyKnown(o, SoftmaxScores(scores))
		}
		next := UpdateAccuracySim(d, probs, cfg.PriorA, cfg.PriorB, cfg.ValueSim)
		res.Probs = probs
		res.Rounds = round
		if MaxAccuracyDelta(acc, next) < cfg.Tol {
			acc = next
			res.Converged = true
			break
		}
		acc = next
	}
	res.Accuracy = acc
	res.PickChosen()
	return res, nil
}
