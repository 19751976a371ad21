package session

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"sourcecurrents/internal/recommend"
)

// TestConcurrentSessionCalls drives one Session from many goroutines mixing
// every serving call, so `go test -race` watches the read-only-after-New
// sharing discipline, and checks every goroutine observed identical
// results. Skipped in -short mode.
func TestConcurrentSessionCalls(t *testing.T) {
	if testing.Short() {
		t.Skip("race workload skipped in short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // inner loops spawn workers while callers race
	d := servingWorld(t, 37)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	objs := d.Objects()
	wantAns, err := servedTrace(s, objs)
	if err != nil {
		t.Fatal(err)
	}
	wantFuse, err := s.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	w := recommend.DefaultWeights()
	wantTop, err := recommend.Top(recommend.BuildProfiles(d, s.Dependence().State(), nil), w, 3)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			check := func(got, want any, what string) bool {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d: %s differs across concurrent calls", g, what)
					return false
				}
				return true
			}
			for i := 0; i < 5; i++ {
				switch (g + i) % 3 {
				case 0:
					q := objs[(g*3)%len(objs):]
					if len(q) == 0 {
						q = objs
					}
					got, err := servedTrace(s, objs)
					if err != nil {
						errs[g] = err
						return
					}
					if !check(got, wantAns, "answer trace") {
						return
					}
					if _, err := s.AnswerObjects(q); err != nil {
						errs[g] = err
						return
					}
				case 1:
					got, err := s.Fuse()
					if err != nil {
						errs[g] = err
						return
					}
					if !check(got, wantFuse, "fusion result") {
						return
					}
				case 2:
					got, err := s.RecommendSources(w, 3)
					if err != nil {
						errs[g] = err
						return
					}
					if !check(got, wantTop, "recommendation") {
						return
					}
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
