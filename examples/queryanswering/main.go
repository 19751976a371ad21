// Queryanswering: §4's online top-k query answering — probe the most
// promising sources first and skip sources dependent on ones already
// visited, refreshing answer probabilities after each probe.
package main

import (
	"fmt"
	"log"

	"sourcecurrents"
	"sourcecurrents/internal/queryans"
	"sourcecurrents/internal/synth"
)

func main() {
	sw, err := synth.GenerateSnapshot(synth.SnapshotConfig{
		Seed: 19, NObjects: 100,
		IndependentAcc: []float64{0.92, 0.85, 0.7},
		Copiers: []synth.CopierSpec{
			{MasterIndex: 0, CopyRate: 0.9, OwnAcc: 0.6},
			{MasterIndex: 0, CopyRate: 0.9, OwnAcc: 0.6},
		},
		FalsePool: 20,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Build a serving session: dependence is discovered once, and every
	// query afterwards reads the cached accuracies and dependence table.
	s, err := sourcecurrents.NewSession(sw.Dataset, sourcecurrents.DefaultSessionConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("discovered %d dependent pairs\n", len(s.Dependence().Dependences))

	query := sw.Dataset.Objects()
	for _, policy := range []sourcecurrents.QueryPolicy{
		sourcecurrents.QueryGreedyGain,
		sourcecurrents.QueryAccuracyCoverage,
	} {
		cfg := sourcecurrents.DefaultQueryConfig()
		cfg.Policy = policy
		res, err := s.TraceObjects(query, cfg)
		if err != nil {
			log.Fatal(err)
		}
		curve := queryans.QualityCurve(res, sw.World)
		fmt.Printf("\npolicy %v probes %v\n", policy, res.Probed)
		for i, q := range curve {
			fmt.Printf("  after %d probes: %.3f correct\n", i+1, q)
		}
	}
	fmt.Println("\nthe dependence-aware order defers the copies of already-probed sources,")
	fmt.Println("reaching its best quality with fewer probes; the session answers every")
	fmt.Println("follow-up query without re-deriving accuracies or dependence.")
}
