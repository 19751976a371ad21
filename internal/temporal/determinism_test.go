package temporal

import (
	"reflect"
	"runtime"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/synth"
)

// The engine contract: pairwise and windowed temporal detection are
// bit-identical at every worker count (GOMAXPROCS 1, 4, 16).

func temporalWorld(t *testing.T, seed int64) *dataset.Dataset {
	t.Helper()
	tw, err := synth.GenerateTemporal(synth.TemporalConfig{
		Seed:       seed,
		NObjects:   40,
		Horizon:    60,
		ChangeRate: 0.12,
		Publishers: []synth.PublisherSpec{
			{CaptureProb: 0.9, MaxDelay: 2},
			{CaptureProb: 0.8, MaxDelay: 4},
			{CaptureProb: 0.7, MaxDelay: 3},
			{CaptureProb: 0.85, MaxDelay: 1},
		},
		LazyCopiers: []synth.LazyCopierSpec{
			{MasterIndex: 0, CopyProb: 0.8, MinLag: 1, MaxLag: 4},
			{MasterIndex: 2, CopyProb: 0.6, MinLag: 2, MaxLag: 5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tw.Dataset
}

func TestDetectPairsParallelismInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, seed := range []int64{3, 17, 99} {
		d := temporalWorld(t, seed)
		var want *Result
		for _, p := range []int{1, 4, 16} {
			runtime.GOMAXPROCS(p)
			got, err := DetectPairs(d, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: DetectPairs result at GOMAXPROCS=%d differs from sequential", seed, p)
			}
		}
	}
}

func TestDetectOverWindowsParallelismInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	d := temporalWorld(t, 13)
	var want *WindowedResult
	for _, p := range []int{1, 4, 16} {
		runtime.GOMAXPROCS(p)
		got, err := DetectOverWindows(d, DefaultWindowedConfig())
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("DetectOverWindows result at GOMAXPROCS=%d differs from sequential", p)
		}
	}
}
