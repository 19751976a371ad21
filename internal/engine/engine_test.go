package engine

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// workerCounts are the GOMAXPROCS settings the suites run under: inline,
// more workers than this box has cores, and more workers than most loops
// have chunks.
var workerCounts = []int{1, 2, 4, 16}

// withWorkers runs f with the process's worker count set to n.
func withWorkers(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

func TestMapNMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 17, 100, 1000} {
		input := make([]float64, n)
		for i := range input {
			input[i] = rng.Float64()
		}
		var want []float64
		for i, v := range input {
			want = append(want, v*float64(i+1))
		}
		for _, workers := range workerCounts {
			withWorkers(workers, func() {
				got := MapN(n, func(i int) float64 { return input[i] * float64(i+1) })
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d workers=%d: result differs from the sequential loop", n, workers)
				}
			})
		}
	}
}

func TestMapNStableUnderJitter(t *testing.T) {
	// Randomized per-item delays reorder completion; output order must not
	// care.
	const n = 64
	rng := rand.New(rand.NewSource(7))
	delays := make([]time.Duration, n)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(100)) * time.Microsecond
	}
	withWorkers(8, func() {
		got := MapN(n, func(i int) int {
			time.Sleep(delays[i])
			return i * i
		})
		for i, v := range got {
			if v != i*i {
				t.Fatalf("index %d holds %d, want %d", i, v, i*i)
			}
		}
	})
}

func TestMapObjectsPreservesInputOrder(t *testing.T) {
	items := []string{"d", "a", "c", "b"}
	want := []string{"d!", "a!", "c!", "b!"}
	withWorkers(4, func() {
		if got := MapObjects(items, func(s string) string { return s + "!" }); !reflect.DeepEqual(got, want) {
			t.Fatalf("got %v want %v", got, want)
		}
	})
}

func TestMapPairsEnumeratesCanonically(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 20} {
		var want [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				want = append(want, [2]int{i, j})
			}
		}
		withWorkers(4, func() {
			got := MapPairs(n, func(i, j int) [2]int { return [2]int{i, j} })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d: got %v want %v", n, got, want)
			}
		})
	}
}

func TestMapNCallsEachIndexOnce(t *testing.T) {
	const n = 257
	counts := make([]int32, n)
	withWorkers(8, func() {
		MapN(n, func(i int) int {
			counts[i]++ // safe: each index is visited by exactly one worker
			return i
		})
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d called %d times", i, c)
		}
	}
}

// The worker count is min(GOMAXPROCS, n), read at the call: one scratch is
// asked for per worker, on the calling goroutine.
func TestWorkerCountResolution(t *testing.T) {
	for _, c := range []struct{ procs, n, want int }{
		{5, 1000, 5}, {5, 3, 3}, {1, 1000, 1}, {4, 1, 1}, {4, 0, 0},
	} {
		withWorkers(c.procs, func() {
			got := 0 // no atomic: newScratch never runs concurrently
			ForNScratch(c.n, func() int { got++; return 0 }, func(int, int) {})
			if got != c.want {
				t.Fatalf("GOMAXPROCS(%d), n=%d: %d scratches asked for, want %d", c.procs, c.n, got, c.want)
			}
		})
	}
}

func TestChunkSizing(t *testing.T) {
	if got := chunkFor(3, 8); got != 1 {
		t.Fatalf("tiny-n chunk = %d, want 1", got)
	}
	if got := chunkFor(1600, 4); got != 100 {
		t.Fatalf("auto chunk = %d, want 100", got)
	}
}

// Each worker gets its own scratch (at most one per worker, one when inline),
// and a result computed through it is the sequential one.
func TestForNScratchMatchesSequential(t *testing.T) {
	const n = 1000
	for _, workers := range workerCounts {
		withWorkers(workers, func() {
			got := make([]float64, n)
			var scratches atomic.Int64
			ForNScratch(n, func() []float64 {
				scratches.Add(1)
				return make([]float64, 8)
			}, func(i int, scratch []float64) {
				scratch[0] = float64(i) * 1.5
				got[i] = scratch[0] + 1
			})
			if s := scratches.Load(); s < 1 || s > int64(workers) {
				t.Fatalf("workers=%d: %d scratch allocations, want 1..%d", workers, s, workers)
			}
			for i := range got {
				if want := float64(i)*1.5 + 1; got[i] != want {
					t.Fatalf("workers=%d index %d: got %v want %v", workers, i, got[i], want)
				}
			}
		})
	}
}

func TestForNCoversAllIndexes(t *testing.T) {
	for _, n := range []int{0, 1, 7, 300} {
		seen := make([]atomic.Int64, n)
		withWorkers(4, func() {
			ForNScratch(n, func() struct{} { return struct{}{} },
				func(i int, _ struct{}) { seen[i].Add(1) })
		})
		for i := range seen {
			if seen[i].Load() != 1 {
				t.Fatalf("n=%d index %d ran %d times, want 1", n, i, seen[i].Load())
			}
		}
	}
}

// TestWorkerPanicReachesCaller: a panic inside a fanned-out loop is re-raised
// on the calling goroutine with its value intact, where the caller (net/http
// for a request) can recover it; an unrecovered panic on a worker goroutine
// would end the process instead. The faulting worker's stack goes to stderr.
func TestWorkerPanicReachesCaller(t *testing.T) {
	type fault struct{ index int }
	log, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer func(old *os.File) { os.Stderr = old }(os.Stderr)
	os.Stderr = log
	withWorkers(4, func() {
		defer func() {
			if r, ok := recover().(fault); !ok || r.index != 500 {
				t.Fatalf("recovered %#v, want fault{500}", r)
			}
			// The worker's stack names the function that faulted.
			if out, _ := os.ReadFile(log.Name()); !bytes.Contains(out, []byte("TestWorkerPanicReachesCaller.func")) {
				t.Fatalf("stderr does not carry the faulting worker's stack:\n%s", out)
			}
		}()
		ForNScratch(1000, func() struct{} { return struct{}{} }, func(i int, _ struct{}) {
			if i == 500 {
				panic(fault{i})
			}
		})
		t.Fatal("ForNScratch returned normally")
	})
}
