// Package engine provides the deterministic fan-out primitive the O(S²)
// discovery loops run on.
//
// Copy detection scores each source pair independently, its truth step
// scores each object independently, and windowed temporal detection analyzes
// each time window independently. The engine spreads such a loop over
// runtime.GOMAXPROCS(0) workers — read at the call; there is no other knob —
// while guaranteeing the result is bit-identical to the sequential run:
//
//   - every work item writes only its own index-addressed slot of the
//     output, so no result depends on scheduling order;
//   - callers merge results by iterating the output in canonical input
//     order, never in goroutine-completion or map order;
//   - with one worker (GOMAXPROCS=1, or fewer than two items) the loop runs
//     inline on the calling goroutine.
//
// Work is handed out in chunks claimed from an atomic cursor — about four
// per worker — so uneven item costs (pairs with large overlaps next to pairs
// with tiny ones) load balance without per-item synchronization. A panic in
// a worker is re-raised on the calling goroutine once every worker has
// stopped, so it fails the caller's request exactly as the inline loop's
// would, not the process.
//
// Only loops measured faster on two cores than on one use it (README, "The
// parallel execution engine"); everything else is a plain loop.
package engine

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// chunkFor is the number of consecutive items a worker claims at a time:
// about four chunks per worker so stragglers rebalance, at least one item.
func chunkFor(n, workers int) int { return max(n/(workers*4), 1) }

// workerPanic is what a worker's recover keeps for the caller: the value,
// re-raised as it is, and the stack of the goroutine that faulted, which the
// re-raise would otherwise lose.
type workerPanic struct {
	value any
	stack []byte
}

// ForNScratch runs fn(i, scratch) for every i in [0, n). newScratch is called
// on the calling goroutine, once per worker (once in all when the loop runs
// inline) and before any fn runs, so it needs no synchronization of its own;
// its value is passed to every fn call that worker executes. Each scratch is
// only ever touched by one goroutine at a time, so fn can reuse buffers in it
// freely, and results stay bit-identical to the sequential run as long as
// fn's output for index i does not depend on scratch history. fn must be
// safe for concurrent invocation on distinct indexes and writes its result
// into caller-owned, index-addressed storage; it is called exactly once per
// index unless some call panics, in which case the first panic is re-raised
// here with its value intact and the faulting worker's stack on stderr.
func ForNScratch[S any](n int, newScratch func() S, fn func(i int, scratch S)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		if n > 0 {
			scratch := newScratch()
			for i := 0; i < n; i++ {
				fn(i, scratch)
			}
		}
		return
	}
	chunk := int64(chunkFor(n, workers))
	var cursor atomic.Int64
	var panicked atomic.Pointer[workerPanic]
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		scratch := newScratch()
		go func() {
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &workerPanic{r, debug.Stack()})
					cursor.Store(int64(n)) // the other workers stop at their next claim
				}
				wg.Done()
			}()
			for {
				start := cursor.Add(chunk) - chunk
				if start >= int64(n) {
					return
				}
				end := min(start+chunk, int64(n))
				for i := start; i < end; i++ {
					fn(int(i), scratch)
				}
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		fmt.Fprintf(os.Stderr, "engine: panic in a worker: %v\n%s", p.value, p.stack)
		panic(p.value)
	}
}

// MapN computes fn(i) for every i in [0, n) and returns the results indexed
// by i.
func MapN[R any](n int, fn func(i int) R) []R {
	if n <= 0 {
		return nil
	}
	out := make([]R, n)
	ForNScratch(n, func() struct{} { return struct{}{} },
		func(i int, _ struct{}) { out[i] = fn(i) })
	return out
}

// MapObjects applies fn to every item of a slice — one candidate overlap,
// one analysis window — and returns the results in input order.
func MapObjects[T, R any](items []T, fn func(item T) R) []R {
	return MapN(len(items), func(i int) R { return fn(items[i]) })
}

// MapPairs applies fn to every unordered index pair {i, j} with
// 0 <= i < j < n, in canonical order (i ascending, then j ascending), and
// returns the n·(n−1)/2 results in that order. This is the shape of the
// pairwise dependence-detection loops.
func MapPairs[R any](n int, fn func(i, j int) R) []R {
	if n < 2 {
		return nil
	}
	pairs := make([][2]int, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	return MapObjects(pairs, func(p [2]int) R { return fn(p[0], p[1]) })
}
