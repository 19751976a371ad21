// Race-detector coverage: drive every parallel hot path with more workers
// than cores (GOMAXPROCS raised to 16 for the test) on workloads large enough that chunks genuinely interleave, so
// `go test -race` exercises the engine's sharing discipline (read-only
// inputs, index-addressed writes). Skipped in -short mode.
package sourcecurrents_test

import (
	"runtime"
	"sync"
	"testing"

	"sourcecurrents"
	"sourcecurrents/internal/synth"
)

// memoizingSim is a stateful ValueSim of the kind the config docs require
// to be synchronized; it mirrors experiments.BookSim's structure.
func memoizingSim() func(a, b string) float64 {
	var mu sync.Mutex
	memo := map[[2]string]float64{}
	return func(a, b string) float64 {
		k := [2]string{a, b}
		if a > b {
			k = [2]string{b, a}
		}
		mu.Lock()
		defer mu.Unlock()
		if v, ok := memo[k]; ok {
			return v
		}
		var v float64
		if len(a) > 0 && len(b) > 0 && a[0] == b[0] {
			v = 0.3
		}
		memo[k] = v
		return v
	}
}

func raceSnapshotDataset(t *testing.T) *sourcecurrents.Dataset {
	t.Helper()
	sw, err := synth.GenerateSnapshot(synth.SnapshotConfig{
		Seed:           77,
		NObjects:       150,
		IndependentAcc: []float64{0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6, 0.55},
		Copiers: []synth.CopierSpec{
			{MasterIndex: 0, CopyRate: 0.9, OwnAcc: 0.6},
			{MasterIndex: 3, CopyRate: 0.7, OwnAcc: 0.7},
			{MasterIndex: 5, CopyRate: 0.8, OwnAcc: 0.5},
		},
		FalsePool: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sw.Dataset
}

func TestParallelPathsUnderRaceDetector(t *testing.T) {
	if testing.Short() {
		t.Skip("race workload skipped in short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	d := raceSnapshotDataset(t)

	if _, err := sourcecurrents.DiscoverTruth(d, sourcecurrents.DefaultTruthConfig()); err != nil {
		t.Fatal(err)
	}

	if _, err := sourcecurrents.DetectDependence(d, sourcecurrents.DefaultDependenceConfig()); err != nil {
		t.Fatal(err)
	}

	// ValueSim is the one user-supplied callback the workers share; drive
	// it with a (synchronized) memoizing implementation — the shape EX4's
	// BookSim uses — so -race watches the ApplySimilarity/ClassMass path.
	scfg := sourcecurrents.DefaultDependenceConfig()
	scfg.Truth.ValueSim = memoizingSim()
	scfg.Truth.ValueSimWeight = 0.2
	if _, err := sourcecurrents.DetectDependence(d, scfg); err != nil {
		t.Fatal(err)
	}

	tw, err := synth.GenerateTemporal(synth.TemporalConfig{
		Seed:       78,
		NObjects:   60,
		Horizon:    80,
		ChangeRate: 0.1,
		Publishers: []synth.PublisherSpec{
			{CaptureProb: 0.9, MaxDelay: 2},
			{CaptureProb: 0.8, MaxDelay: 3},
			{CaptureProb: 0.7, MaxDelay: 4},
			{CaptureProb: 0.85, MaxDelay: 2},
			{CaptureProb: 0.75, MaxDelay: 3},
		},
		LazyCopiers: []synth.LazyCopierSpec{
			{MasterIndex: 0, CopyProb: 0.8, MinLag: 1, MaxLag: 4},
			{MasterIndex: 1, CopyProb: 0.7, MinLag: 1, MaxLag: 5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sourcecurrents.DetectTemporalDependence(tw.Dataset, sourcecurrents.DefaultTemporalConfig()); err != nil {
		t.Fatal(err)
	}

	if _, err := sourcecurrents.DetectTemporalOverWindows(tw.Dataset, sourcecurrents.DefaultWindowedTemporalConfig()); err != nil {
		t.Fatal(err)
	}
}

// TestSessionUnderRaceDetector hammers one serving Session from many
// goroutines through the facade while its inner loops also run parallel
// workers, so -race watches both layers of sharing at once (complementing
// internal/session's race suite).
func TestSessionUnderRaceDetector(t *testing.T) {
	if testing.Short() {
		t.Skip("race workload skipped in short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	d := raceSnapshotDataset(t)
	s, err := sourcecurrents.NewSession(d, sourcecurrents.DefaultSessionConfig())
	if err != nil {
		t.Fatal(err)
	}
	objs := d.Objects()
	var wg sync.WaitGroup
	errs := make([]error, 12)
	for g := 0; g < len(errs); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				switch (g + i) % 3 {
				case 0:
					_, errs[g] = s.AnswerObjects(objs[g%len(objs):])
				case 1:
					_, errs[g] = s.Fuse()
				case 2:
					_, errs[g] = s.RecommendSources(sourcecurrents.DefaultTrustWeights(), 4)
				}
				if errs[g] != nil {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}
