package session

import (
	"bytes"
	"math/rand"
	"testing"

	"sourcecurrents/internal/synth"
)

// benchWorld builds the acceptance-bar serving world: 500 independent
// sources plus 50 copiers over 30 objects — the shape TestSnapshotLoadBeatsBuild
// and the cold-start acceptance numbers are quoted at.
func benchWorld(b testing.TB) *Session {
	b.Helper()
	accs := make([]float64, 500)
	for i := range accs {
		accs[i] = 0.55 + 0.4*float64(i%9)/8
	}
	copiers := make([]synth.CopierSpec, 50)
	for i := range copiers {
		copiers[i] = synth.CopierSpec{MasterIndex: i, CopyRate: 0.8, OwnAcc: 0.6}
	}
	sw, err := synth.GenerateSnapshot(synth.SnapshotConfig{
		Seed:           37,
		NObjects:       30,
		IndependentAcc: accs,
		Copiers:        copiers,
		FalsePool:      5,
	})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(sw.Dataset, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSessionAsOf measures epoch time travel on the acceptance-shape
// world advanced through 4 appends with full retention. "retained" is the
// spine hit every request pays when the epoch's session is in memory — it
// must stay O(1) lookup, no reconstruction. "materialize" is the rebuild
// path on a snapshot-reloaded chain (no retained predecessors): a full
// forward replay, paid once per epoch then cached — the bench re-loads the
// snapshot each iteration to defeat that cache.
func BenchmarkSessionAsOf(b *testing.B) {
	base := benchWorld(b)
	buildChain := func() *Session {
		cfg := DefaultConfig()
		cfg.RetainEpochs = -1
		cur, err := New(base.Dataset(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 4; i++ {
			if cur, err = cur.Append(randomBatch(rng, cur.Dataset(), i)); err != nil {
				b.Fatal(err)
			}
		}
		return cur
	}

	b.Run("retained", func(b *testing.B) {
		cur := buildChain()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cur.AsOf(i % 5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("materialize", func(b *testing.B) {
		raw := snapshotBytes(b, buildChain())
		cfg := DefaultConfig()
		cfg.RetainEpochs = -1
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			loaded, err := LoadSnapshot(bytes.NewReader(raw), cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := loaded.AsOf(2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSnapshotLoad measures both load paths at the 500-source
// acceptance shape: "file" reads the file into one buffer of its size
// (header validation, the dataset built over the stored tables and checked
// against them, the pair records checked and the totals table derived, the
// planner built — ≤100 allocs/op), "read" reads it from a stream sized by
// its header.
func BenchmarkSnapshotLoad(b *testing.B) {
	raw := snapshotBytes(b, benchWorld(b))
	path := snapshotFile(b, raw)
	cfg := DefaultConfig()
	b.Run("file", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := LoadSnapshotFile(path, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := LoadSnapshot(bytes.NewReader(raw), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
