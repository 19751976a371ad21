package fusion

import (
	"reflect"
	"runtime"
	"testing"
)

// Repeated-run determinism: fusing a freshly rebuilt world must yield
// bit-identical results every time, at every worker count (fusion's own
// loops are inline; the DependenceAware solve under it fans out) — any
// map-iteration order leaking into the relation or the chosen values would
// trip this.

func TestFuseDeterministicAcrossRunsAndParallelism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, st := range []Strategy{KeepFirst, Majority, Weighted, DependenceAware} {
		var want *Result
		for run := 0; run < 3; run++ {
			d := goldenWorld(t, 11)
			for _, p := range []int{1, 4, 16} {
				runtime.GOMAXPROCS(p)
				cfg := DefaultConfig()
				cfg.Strategy = st
				got, err := Fuse(d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("strategy %v: result differs across runs (GOMAXPROCS=%d)", st, p)
				}
			}
		}
	}
}
