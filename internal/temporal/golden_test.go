package temporal

import (
	"reflect"
	"runtime"
	"testing"

	"sourcecurrents/internal/synth"
)

// Golden equivalence: DetectPairs (compiled merge-join path) must be
// bit-identical — reflect.DeepEqual, no tolerance — to detectPairsMaps
// (the map-based reference) on seeded temporal worlds with lazy copiers,
// at every worker count.

func TestDetectPairsCompiledMatchesMaps(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, seed := range []int64{7, 43, 997} {
		tw, err := synth.GenerateTemporal(synth.TemporalConfig{
			Seed:       seed,
			NObjects:   40,
			Horizon:    60,
			ChangeRate: 0.12,
			Publishers: []synth.PublisherSpec{
				{CaptureProb: 0.9, MaxDelay: 2},
				{CaptureProb: 0.8, MaxDelay: 3},
				{CaptureProb: 0.7, MaxDelay: 4},
				{CaptureProb: 0.85, MaxDelay: 2},
			},
			LazyCopiers: []synth.LazyCopierSpec{
				{MasterIndex: 0, CopyProb: 0.8, MinLag: 1, MaxLag: 4},
				{MasterIndex: 2, CopyProb: 0.7, MinLag: 1, MaxLag: 5},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, windows := range []struct {
			name string
			cfg  Config
		}{
			{"default", DefaultConfig()},
			{"tight-window", func() Config { c := DefaultConfig(); c.Window = 2; return c }()},
		} {
			want, err := detectPairsMaps(tw.Dataset, windows.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 4, 16} {
				runtime.GOMAXPROCS(p)
				got, err := DetectPairs(tw.Dataset, windows.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, cfg %q: compiled DetectPairs at GOMAXPROCS=%d differs from map reference", seed, windows.name, p)
				}
			}
		}
	}
}
