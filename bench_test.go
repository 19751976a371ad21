// Benchmarks: one per experiment in DESIGN.md §4, so every table and
// figure-equivalent can be timed with `go test -bench=. -benchmem`, plus one
// benchmark per solver over synthetic worlds of 50-500 sources: the worker
// count is GOMAXPROCS, so `go test -bench 'Accu|Detect|Temporal' -cpu 1,2`
// prints the execution engine's speed-up.
package sourcecurrents_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"sourcecurrents"
	"sourcecurrents/internal/experiments"
	"sourcecurrents/internal/queryans"
	"sourcecurrents/internal/raceflag"
	"sourcecurrents/internal/synth"
)

func BenchmarkEX1Table1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.EX1Table1()
	}
}

func BenchmarkEX2Table2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.EX2Table2()
	}
}

func BenchmarkEX3Table3(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.EX3Table3()
	}
}

func BenchmarkEX4AbeBooksSmall(b *testing.B) {
	b.ReportAllocs()
	cfg := experiments.SmallEX4Config()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.EX4AbeBooks(cfg)
	}
}

func BenchmarkEX4AbeBooksFull(b *testing.B) {
	b.ReportAllocs()
	if testing.Short() {
		b.Skip("full Example 4.1 scale")
	}
	cfg := experiments.DefaultEX4Config()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.EX4AbeBooks(cfg)
	}
}

func BenchmarkEX5CopySweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.EX5CopySweep(11, 200)
	}
}

func BenchmarkEX6TruthSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.EX6TruthSweep(13, 200)
	}
}

func BenchmarkEX7TemporalSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.EX7TemporalSweep(17, 50)
	}
}

func BenchmarkEX8QueryOrder(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.EX8QueryOrder(19)
	}
}

func BenchmarkEX9DissimSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.EX9DissimSweep(23)
	}
}

func BenchmarkEX10Winnow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.EX10Winnow(29, 200)
	}
}

// benchSnapshotWorld generates a snapshot corpus with nSources independent
// sources (accuracies spread over 0.55-0.95) plus one copier per ten
// independents, all claiming nObjects objects.
func benchSnapshotWorld(b testing.TB, nSources, nObjects int) *sourcecurrents.Dataset {
	b.Helper()
	accs := make([]float64, nSources)
	for i := range accs {
		accs[i] = 0.55 + 0.4*float64(i%9)/8
	}
	var copiers []synth.CopierSpec
	for i := 0; i < nSources/10; i++ {
		copiers = append(copiers, synth.CopierSpec{MasterIndex: i, CopyRate: 0.8, OwnAcc: 0.6})
	}
	sw, err := synth.GenerateSnapshot(synth.SnapshotConfig{
		Seed:           int64(nSources)*31 + int64(nObjects),
		NObjects:       nObjects,
		IndependentAcc: accs,
		Copiers:        copiers,
		FalsePool:      5,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sw.Dataset
}

// benchSizes are the source counts the engine benchmarks sweep; the larger
// scales are skipped in -short mode.
var benchSizes = []struct {
	sources, objects int
	short            bool
}{
	{50, 60, true},
	{200, 40, false},
	{500, 30, false},
}

func BenchmarkAccu(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(fmt.Sprintf("sources=%d", sz.sources), func(b *testing.B) {
			b.ReportAllocs()
			if testing.Short() && !sz.short {
				b.Skip("large scale skipped in short mode")
			}
			d := benchSnapshotWorld(b, sz.sources, sz.objects)
			cfg := sourcecurrents.DefaultTruthConfig()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sourcecurrents.DiscoverTruth(d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDetect(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(fmt.Sprintf("sources=%d", sz.sources), func(b *testing.B) {
			b.ReportAllocs()
			if testing.Short() && !sz.short {
				b.Skip("large scale skipped in short mode")
			}
			d := benchSnapshotWorld(b, sz.sources, sz.objects)
			cfg := sourcecurrents.DefaultDependenceConfig()
			// Fixed outer rounds so every world times the same number of
			// steps regardless of where the accuracy fixpoint lands.
			cfg.MaxRounds = 3
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sourcecurrents.DetectDependence(d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFlatSolve is BenchmarkDetect's 500-source world and configuration
// solved by NewSession: the flat solve without the Result view, which no
// serving call builds. pairs/op counts the analysed pairs, and tuples/op the
// distinct (acc[a], acc[b], kt, kf, kd) among them — the inputs of a pair's
// posterior, and so the Bayes steps the solve's last round computes rather
// than finds in its workers' tables — both read off the solved session.
func BenchmarkFlatSolve(b *testing.B) {
	d := benchSnapshotWorld(b, 500, 30)
	cfg := sourcecurrents.DefaultSessionConfig()
	cfg.Depen.MaxRounds = 3
	b.ReportAllocs()
	var s *sourcecurrents.Session
	for i := 0; i < b.N; i++ {
		var err error
		if s, err = sourcecurrents.NewSession(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	dep := s.Dependence()
	acc := dep.Truth.Accuracy
	tuples := map[[5]uint64]bool{}
	for _, p := range dep.AllPairs {
		tuples[[5]uint64{math.Float64bits(acc[p.Pair.A]), math.Float64bits(acc[p.Pair.B]),
			math.Float64bits(p.KT), math.Float64bits(p.KF), math.Float64bits(p.KD)}] = true
	}
	b.ReportMetric(float64(len(dep.AllPairs)), "pairs/op")
	b.ReportMetric(float64(len(tuples)), "tuples/op")
}

// TestDetectFlatAllocs holds a flat Detect (BenchmarkDetect's worlds and
// configuration, on one worker) to what it allocated before the flat solve
// became the incremental one started from nothing: the predecessor
// bookkeeping — dirty sets, kept-pair table, merged pair slice — must cost a
// flat solve nothing. The ceilings were lowered five times since (337 /
// 6.26 MB, 317 / 69.1 MB, 316 / 345 MB, then 285, 247, 231 allocations, then
// 276, 238, 222, then 265 / 2.77 MB, 227 / 48.8 MB, 211 / 251.5 MB): the
// overlap arrays reserve by doubling, and that pays several times over for
// the pair records a solve now keeps next to the named pairs of its Result;
// the workers' scratch is allocated once per solve instead of once per round
// and step, which pays for the discount kernel's two rank arrays and two more
// scratch slices; the Result view reads its directional posteriors off the
// state's pair records, so it no longer builds a second source×source table
// (2 allocations and ≥ 8·S² bytes fewer); and a candidate stores one int32
// per agreeing shared object instead of three per shared object, so the one
// overlap array left is a fraction of the three and regrows fewer times.
// Then 238 / 0.93 MB, 186 / 11.3 MB, 164 / 64.4 MB: the flat join reserves
// its overlap array once, at a bound on every pair's shared objects, instead
// of doubling it, and the Result view sorts (posterior, position) keys
// instead of swapping named pairs through a reflective swapper.
// Then 227 / 0.72 MB, 167 / 7.69 MB, 137 / 42.96 MB: the join reserves its
// overlap array at exactly what the pairs agree on, Σ_g C(|g|, 2), and its
// candidate list once, which pays for the dense rounds' ranked value groups
// and factor table; the ceilings are those plus a tenth, where that is under
// the ceiling before (at 50 sources the count keeps its 238).
// Allocation counts are exact; bytes get 0.1% for runtime noise and are the
// least of three runs: TotalAlloc is process-wide, so whatever the runtime
// allocates in the background during a run is added to it and never taken
// away.
func TestDetectFlatAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ceilings := map[int]struct{ allocs, bytes float64 }{
		50:  {238, 790733},
		200: {183, 8461974},
		500: {150, 47253254},
	}
	for _, sz := range benchSizes {
		if testing.Short() && !sz.short {
			continue
		}
		d := benchSnapshotWorld(t, sz.sources, sz.objects)
		cfg := sourcecurrents.DefaultDependenceConfig()
		cfg.MaxRounds = 3
		run := func() {
			if _, err := sourcecurrents.DetectDependence(d, cfg); err != nil {
				t.Fatal(err)
			}
		}
		lim := ceilings[sz.sources]
		if got := testing.AllocsPerRun(2, run); got > lim.allocs {
			t.Errorf("sources=%d: flat Detect made %.0f allocations, ceiling %.0f", sz.sources, got, lim.allocs)
		}
		got := math.Inf(1)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			got = min(got, float64(after.TotalAlloc-before.TotalAlloc))
		}
		if got > lim.bytes*1.001 {
			t.Errorf("sources=%d: flat Detect allocated %.0f bytes, ceiling %.0f (+0.1%%)", sz.sources, got, lim.bytes)
		}
	}
}

// TestAppendBuildAllocs holds the write path's dataset stage — Append plus
// the columns it builds — to what it allocates when the successor copies the
// claim log: on the 100-independent × 400-object world, a 220-claim
// source-major batch that names nothing new (two sources re-claiming 110
// objects each), appended each time onto the same flat dataset, which has no
// log to extend — what a sibling, a retry and At's successors pay. The
// per-source and per-object maps the columns replaced made 17073 allocations
// (9.3 MB) here; it is 29 (6.8 MB, 4.8 of it the claim array's copy with its
// room to grow). Counts and bytes get 10%. A chained append, which copies no
// claims, is held by TestDatasetAppendBytes in internal/dataset.
func TestAppendBuildAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	const allocCeiling, byteCeiling = 29, 6830576
	d := benchSnapshotWorld(t, 100, 400)
	var batch []sourcecurrents.Claim
	for k, s := range []sourcecurrents.SourceID{d.Sources()[3], d.Sources()[57]} {
		for _, o := range d.Objects()[k*110 : (k+1)*110] {
			v, _ := d.Value(d.Sources()[0], o)
			batch = append(batch, sourcecurrents.NewClaim(s, o, v))
		}
	}
	run := func() {
		next, err := d.Append(batch)
		if err != nil {
			t.Fatal(err)
		}
		if next.Compiled().NumSources() != len(d.Sources()) {
			t.Fatal("the batch was meant to name no new source")
		}
	}
	if got := testing.AllocsPerRun(5, run); got > allocCeiling*1.1 {
		t.Errorf("Append + Compiled made %.0f allocations, ceiling %d (+10%%)", got, allocCeiling)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if got := float64(after.TotalAlloc - before.TotalAlloc); got > byteCeiling*1.1 {
		t.Errorf("Append + Compiled allocated %.0f bytes, ceiling %d (+10%%)", got, byteCeiling)
	}
}

// BenchmarkPlanWide times one plan that the answer cache missed, on the shape
// bench/ calls wide (500 independents + 50 copiers × 30 objects, 5-object
// queries, every one of the 550 sources probed), through both session calls.
// "final" is what a default /answer runs and what bench/'s
// queryans.plan_ms.wide and cold_plan follow. It probes every candidate, so
// once a query's objects have been folded they are answered from the
// planner's per-object memo: after the first few of these queries every plan
// is selection plus a copy. "final_memoless" is the same planner with no
// memo, so it folds the probed claims on every call (scoreProbed, most of
// such a plan). On one core of a 2-vCPU Xeon VM, five runs alternating
// with the previous planner's binary: final 0.06–0.11 ms (0.20–0.34 ms when
// candidates were found by per-source binary search and the sweep read a
// column of the table), final_memoless 0.44–0.89 ms (0.61–1.10 ms), and
// final before the memo 0.67–0.77 ms.
// "trace" is what include_steps and EX8 run — it rescores the covered objects
// after every probe, and nothing else watches it. On this world every query's
// coverage settles by about the 19th probe and selection stops there;
// "final_unsaturated" is the regime that never gets to stop — the same index
// and dependence table under accuracies scaled by 0.05, so the sweep-and-scan
// runs all 550 rounds (its plans are memo hits too, so that is nearly all
// they do): 0.54–0.91 ms, from 1.68–3.01 ms in the same sitting.
func BenchmarkPlanWide(b *testing.B) {
	d := benchSnapshotWorld(b, 500, 30)
	s, err := sourcecurrents.NewSession(d, sourcecurrents.DefaultSessionConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	objs, nSrc := d.Objects(), len(d.Sources())
	queries := make([][]sourcecurrents.ObjectID, 300)
	for i := range queries {
		for _, oi := range rng.Perm(len(objs))[:5] {
			queries[i] = append(queries[i], objs[oi])
		}
	}
	c, accOf := d.Compiled(), s.Accuracy()
	acc, lowAcc := make([]float64, nSrc), make([]float64, nSrc)
	for i := range lowAcc {
		acc[i] = accOf[c.Source(i)]
		lowAcc[i] = 0.05 * acc[i]
	}
	dep, srcs := s.Dependence(), c.SourceIDs()
	depTab := make([]float64, nSrc*nSrc)
	for i, a := range srcs {
		for j, bj := range srcs {
			depTab[i*nSrc+j] = dep.DependenceProb(a, bj)
		}
	}
	qcfg := s.QueryConfig()
	qcfg.Accuracy, qcfg.Dependence = nil, nil
	unsaturated, err := queryans.NewPlannerDense(d, qcfg, lowAcc, depTab)
	if err != nil {
		b.Fatal(err)
	}
	// The session's planner without the memo: a planner derived under
	// another N carries none, and neither does one derived back from it
	// (TestFinalMemoMatchesFold pins both).
	same, err := queryans.NewPlannerDense(d, qcfg, acc, depTab)
	if err != nil {
		b.Fatal(err)
	}
	otherN := qcfg
	otherN.N++
	detour, err := same.Derive(otherN)
	if err != nil {
		b.Fatal(err)
	}
	memoless, err := detour.Derive(qcfg)
	if err != nil {
		b.Fatal(err)
	}
	if got, err := memoless.Final(queries[0]); err != nil {
		b.Fatal(err)
	} else if want, _ := s.AnswerObjects(queries[0]); !reflect.DeepEqual(got, want) {
		b.Fatal("the memo-less planner answers unlike the session's")
	}
	for _, call := range []struct {
		name string
		plan func(q []sourcecurrents.ObjectID) (*sourcecurrents.QueryResult, error)
	}{
		{"final", s.AnswerObjects},
		{"final_memoless", memoless.Final},
		{"final_unsaturated", unsaturated.Final},
		{"trace", func(q []sourcecurrents.ObjectID) (*sourcecurrents.QueryResult, error) {
			return s.TraceObjects(q, s.QueryConfig())
		}},
	} {
		b.Run(call.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := call.plan(queries[i%len(queries)])
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Probed) != nSrc {
					b.Fatalf("probed %d of %d sources", len(res.Probed), nSrc)
				}
			}
		})
	}
}

// wideAppendBatches returns the two append shapes bench/ sends the wide
// world (500 independents + 50 copiers × 30 objects): source-major, 7 sources
// re-claiming all 30 objects (210 claims, 7 of 550 sources dirty), and
// object-major, every source claiming one new object (every pair dirty).
func wideAppendBatches(d *sourcecurrents.Dataset) map[string][]sourcecurrents.Claim {
	srcs, objs := d.Sources(), d.Objects()
	var srcMajor, objMajor []sourcecurrents.Claim
	for k := 0; k < 7; k++ {
		for _, o := range objs {
			v, _ := d.Value(srcs[0], o)
			srcMajor = append(srcMajor, sourcecurrents.NewClaim(srcs[60+70*k], o, v))
		}
	}
	for i, s := range srcs {
		objMajor = append(objMajor, sourcecurrents.NewClaim(s,
			sourcecurrents.ObjectID{Entity: "held-out", Attribute: "v"}, fmt.Sprintf("T%d", i%4)))
	}
	return map[string][]sourcecurrents.Claim{"src_major": srcMajor, "obj_major": objMajor}
}

func wideSession(tb testing.TB) *sourcecurrents.Session {
	s, err := sourcecurrents.NewSession(benchSnapshotWorld(tb, 500, 30), sourcecurrents.DefaultSessionConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchmarkAppendWide times one Session.Append on the wide shape, each
// iteration from the same base session: dataset append, the state-to-state
// refine, the planner over the successor's tables — and no Result view, which
// nothing on the write path reads. src_major is what bench/'s append_p10_ms
// follows on hot_read and cold_plan.
func BenchmarkAppendWide(b *testing.B) {
	s := wideSession(b)
	batches := wideAppendBatches(s.Dataset())
	for _, shape := range []string{"src_major", "obj_major"} {
		batch := batches[shape]
		b.Run(shape, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Append(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
		})
	}
}

// midAppendBatch is the i-th source-major batch for the mid shape (100
// independents + 10 copiers × 400 objects): two sources re-claiming 110
// objects each with a value the object already has, so no table grows — the
// steady-state append. The sources and the object windows move with i.
func midAppendBatch(d *sourcecurrents.Dataset, i int) []sourcecurrents.Claim {
	srcs, objs := d.Sources(), d.Objects()
	batch := make([]sourcecurrents.Claim, 0, 220)
	for k := 0; k < 2; k++ {
		s := srcs[(3+i+55*k)%len(srcs)]
		for j := 0; j < 110; j++ {
			o := objs[(37*i+200*k+j)%len(objs)]
			v, _ := d.Value(srcs[0], o)
			batch = append(batch, sourcecurrents.NewClaim(s, o, v))
		}
	}
	return batch
}

// midGrowingBatches returns n batches shaped like bench/'s ingest schedule on
// the mid shape, each growing a table: every third is object-major, every
// source claiming an object the world lacks; the rest are source-major, two
// random sources re-claiming 110 random objects each, a quarter of them with
// a value the object never had (two wrong sources on one object name the
// same one).
func midGrowingBatches(d *sourcecurrents.Dataset, n int) [][]sourcecurrents.Claim {
	rng := rand.New(rand.NewSource(11))
	srcs, objs := d.Sources(), d.Objects()
	batches := make([][]sourcecurrents.Claim, n)
	for i := range batches {
		if i%3 == 2 {
			o := sourcecurrents.ObjectID{Entity: fmt.Sprintf("held-%d", i), Attribute: "v"}
			for _, s := range srcs {
				batches[i] = append(batches[i], sourcecurrents.NewClaim(s, o, fmt.Sprintf("H%d_%d", i, rng.Intn(5))))
			}
			continue
		}
		for _, si := range rng.Perm(len(srcs))[:2] {
			for _, oi := range rng.Perm(len(objs))[:110] {
				v, _ := d.Value(srcs[0], objs[oi])
				if rng.Intn(4) == 0 {
					v = fmt.Sprintf("F%d_%d", oi, i)
				}
				batches[i] = append(batches[i], sourcecurrents.NewClaim(srcs[si], objs[oi], v))
			}
		}
	}
	return batches
}

// BenchmarkAppendMid times the write path's dataset stage alone —
// Dataset.Append, the successor's columns included — on the mid shape.
// "chained" appends each batch onto the previous successor, as a serving
// session does: the claim log is extended where it lies and only the rows the
// batch names are laid out. "sibling" appends every batch onto the same base,
// so each one copies the log (what At, a retry and bench/'s
// session.append_self_ms pay). Neither grows a table. "growing" chains the
// batches of midGrowingBatches, which all do, as the appends bench/'s
// ingest_mixed serves do; every 47 appends it starts a new chain from the
// base, the first append (the log's copy) off the clock. "session" is the
// whole of a serving session's Session.Append — the dataset stage, the
// state-to-state refine and the planner — chained over the schedule's 32
// source-major batches, which set ingest_mixed's append_p10_ms; every 31
// appends it starts a new chain from a session on the base, the first
// append off the clock again.
func BenchmarkAppendMid(b *testing.B) {
	base := benchSnapshotWorld(b, 100, 400)
	batches := make([][]sourcecurrents.Claim, 64)
	for i := range batches {
		batches[i] = midAppendBatch(base, i)
	}
	for _, mode := range []string{"chained", "sibling"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			d := base
			for i := 0; i < b.N; i++ {
				next, err := d.Append(batches[i%len(batches)])
				if err != nil {
					b.Fatal(err)
				}
				if mode == "chained" {
					d = next
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
		})
	}
	grow := midGrowingBatches(base, 48)
	b.Run("growing", func(b *testing.B) {
		b.ReportAllocs()
		var d *sourcecurrents.Dataset
		var err error
		for i := 0; i < b.N; i++ {
			k := 1 + i%(len(grow)-1)
			if k == 1 {
				b.StopTimer()
				if d, err = base.Append(grow[0]); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			if d, err = d.Append(grow[k]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
	})
	b.Run("session", func(b *testing.B) {
		var srcMajor [][]sourcecurrents.Claim
		for i, batch := range grow {
			if i%3 != 2 {
				srcMajor = append(srcMajor, batch)
			}
		}
		s0, err := sourcecurrents.NewSession(base, sourcecurrents.DefaultSessionConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var s *sourcecurrents.Session
		for i := 0; i < b.N; i++ {
			k := 1 + i%(len(srcMajor)-1)
			if k == 1 {
				b.StopTimer()
				if s, err = s0.Append(srcMajor[0]); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			if s, err = s.Append(srcMajor[k]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
	})
}

// TestAppendWideBytes holds what a serving session's appends allocate on the
// wide shape (median of 5), each onto the session the one before produced —
// the first, which copies the flat dataset's claims into a log with room, is
// not one of the five. A source-major append used to allocate 33.6 MB, most
// of it a merged AllPairs of 150 975 named pairs and two more S² tables;
// advancing dense state to dense state it was 16.7 MB: the pair records (8.7
// — the merged list is sized before the superseded records are counted), the
// dataset stage (2.7), the totals table (2.4) and the dirty pairs' overlaps.
// With the claim log and the id columns extended where they lie it is 14.6 MB,
// the dataset stage 0.6 of it (seven sources over all 30 objects name every
// object's row, so every row is merged; what is saved is the log's copy).
// The pair's overlap stored as one int32 per agreeing shared object instead
// of three per shared object took it to 13.0 MB; the factor table a dense
// round multiplies from (1.21 MB) and the ranked value groups took it to
// 13.7 MB, under the same ceiling. An object-major one rescores every pair,
// then (351 MB), later (237 MB, the overlap arrays no longer regrown a
// quarter at a time; 57.8 MB, the one overlap array a quarter of the three)
// as now (26.5 MB, the overlap array and the candidate list reserved exactly
// once instead of at a bound on every shared object and by doubling). Each
// ceiling is the median plus a tenth.
func TestAppendWideBytes(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation sizes differ under -race")
	}
	if testing.Short() {
		t.Skip("large scale skipped in short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := wideSession(t)
	batches := wideAppendBatches(s.Dataset())
	for shape, ceiling := range map[string]uint64{"src_major": 14.3e6, "obj_major": 29.2e6} {
		batch := batches[shape]
		cur, err := s.Append(batch)
		if err != nil {
			t.Fatal(err)
		}
		deltas := make([]uint64, 5)
		for i := range deltas {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			next, err := cur.Append(batch)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			deltas[i], cur = after.TotalAlloc-before.TotalAlloc, next
		}
		slices.Sort(deltas)
		if got := deltas[2]; got > ceiling {
			t.Errorf("%s append allocated %d bytes (median of %v), ceiling %d", shape, got, deltas, ceiling)
		} else {
			t.Logf("%s append allocated %d bytes (ceiling %d)", shape, got, ceiling)
		}
	}
}

func BenchmarkTemporal(b *testing.B) {
	b.ReportAllocs()
	tw, err := synth.GenerateTemporal(synth.TemporalConfig{
		Seed:       41,
		NObjects:   50,
		Horizon:    80,
		ChangeRate: 0.1,
		Publishers: []synth.PublisherSpec{
			{CaptureProb: 0.9, MaxDelay: 2}, {CaptureProb: 0.8, MaxDelay: 3},
			{CaptureProb: 0.7, MaxDelay: 4}, {CaptureProb: 0.85, MaxDelay: 2},
			{CaptureProb: 0.75, MaxDelay: 3}, {CaptureProb: 0.65, MaxDelay: 2},
			{CaptureProb: 0.9, MaxDelay: 1}, {CaptureProb: 0.6, MaxDelay: 3},
		},
		LazyCopiers: []synth.LazyCopierSpec{
			{MasterIndex: 0, CopyProb: 0.8, MinLag: 1, MaxLag: 4},
			{MasterIndex: 2, CopyProb: 0.7, MinLag: 1, MaxLag: 5},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sourcecurrents.DefaultTemporalConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sourcecurrents.DetectTemporalDependence(tw.Dataset, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
