package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"os"

	sc "sourcecurrents"
	"sourcecurrents/internal/server"
	"sourcecurrents/internal/synth"
)

// worldSpec is the shape of one generated corpus. sources counts the
// independent sources; one copier per ten of them is planted on top
// (CopyRate 0.8), each copying a different master.
type worldSpec struct {
	name             string
	sources, objects int
}

// The three shapes the program's cost depends on: wide is the O(S²) case
// (pair scoring and the planner dominate), mid is balanced and takes the
// ingest, tall is objects ≫ sources (parsing, compilation and snapshot I/O
// dominate).
var (
	wideWorld = worldSpec{"wide", 500, 30}
	midWorld  = worldSpec{"mid", 100, 400}
	tallWorld = worldSpec{"tall", 20, 10000}
)

// quickened shrinks a world for -quick smoke runs; every code path stays.
func (s worldSpec) quickened() worldSpec {
	s.sources = max(s.sources/5, 10)
	s.objects = max(s.objects/5, 20)
	return s
}

const (
	// heldOutObjects are generated with the world but kept out of the
	// snapshot: each one, claimed by every source at once, is one
	// object-major append batch.
	heldOutObjects = 64
	falsePool      = 20
	copyRate       = 0.8
	copierOwnAcc   = 0.7
	queryObjects   = 5
	zipfS          = 1.1
)

type world struct {
	spec    worldSpec
	base    []sc.Claim   // the claims the snapshot is built from
	heldOut [][]sc.Claim // per held-out object, every source's claim
	objects []sc.ObjectID
	indep   []sc.SourceID
	acc     map[sc.SourceID]float64
	truth   *sc.World
	copies  map[sc.SourcePair]bool // planted copier–master pairs
}

// worldSeed derives a per-world generator seed, so the three worlds of one
// run differ and the same -seed always gives the same three.
func worldSeed(seed int64, name string) int64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", seed, name)))
	var v int64
	for _, b := range h[:8] {
		v = v<<8 | int64(b)
	}
	return v
}

func genWorld(spec worldSpec, seed int64) (*world, error) {
	cfg := synth.SnapshotConfig{
		Seed:      worldSeed(seed, spec.name),
		NObjects:  spec.objects + heldOutObjects,
		FalsePool: falsePool,
	}
	for i := 0; i < spec.sources; i++ {
		// Accuracies cycle through 0.55 … 0.91 so every world mixes good
		// and poor sources whatever its size.
		cfg.IndependentAcc = append(cfg.IndependentAcc, 0.55+0.04*float64((i*7)%10))
	}
	for i := 0; i < spec.sources/10; i++ {
		cfg.Copiers = append(cfg.Copiers, synth.CopierSpec{MasterIndex: i, CopyRate: copyRate, OwnAcc: copierOwnAcc})
	}
	sw, err := synth.GenerateSnapshot(cfg)
	if err != nil {
		return nil, err
	}
	w := &world{
		spec:   spec,
		indep:  sw.Independents,
		acc:    map[sc.SourceID]float64{},
		truth:  sw.World,
		copies: map[sc.SourcePair]bool{},
	}
	for i, id := range sw.Independents {
		w.acc[id] = cfg.IndependentAcc[i]
	}
	for c, m := range sw.MasterOf {
		w.copies[sc.NewSourcePair(c, m)] = true
	}
	// GenerateSnapshot emits object-major: every source's claim on object 0,
	// then object 1, … — so a fixed stride splits base from held-out.
	claims := sw.Dataset.Claims()
	perObject := spec.sources + len(cfg.Copiers)
	if len(claims) != perObject*cfg.NObjects {
		return nil, fmt.Errorf("world %s: %d claims, want %d×%d", spec.name, len(claims), perObject, cfg.NObjects)
	}
	w.base = claims[: perObject*spec.objects : perObject*spec.objects]
	for oi := 0; oi < spec.objects; oi++ {
		w.objects = append(w.objects, claims[oi*perObject].Object)
	}
	for oi := spec.objects; oi < cfg.NObjects; oi++ {
		w.heldOut = append(w.heldOut, claims[oi*perObject:(oi+1)*perObject])
	}
	return w, nil
}

// writeCSV writes the base claims as the claims CSV the program reads. The
// file carries the ordinary header and nothing that names the benchmark.
func (w *world) writeCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sc.WriteClaimsCSV(f, w.base); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// query is one answer request: the body that goes on the wire and the
// objects it asks for (for the in-process layers).
type query struct {
	body    []byte
	objects []sc.ObjectID
}

// genQueries draws n distinct queries of queryObjects random objects each.
// Object order is part of a query's identity (answers are positional and
// the server keys its cache on it), so two orders of one set are distinct.
func genQueries(w *world, rng *rand.Rand, n int) []query {
	seen := map[string]bool{}
	out := make([]query, 0, n)
	k := min(queryObjects, len(w.objects))
	for len(out) < n {
		req := server.AnswerRequest{}
		objs := make([]sc.ObjectID, 0, k)
		for _, oi := range rng.Perm(len(w.objects))[:k] {
			o := w.objects[oi]
			objs = append(objs, o)
			req.Query = append(req.Query, server.ObjectRef{Entity: o.Entity, Attribute: o.Attribute})
		}
		body, _ := json.Marshal(req)
		if seen[string(body)] {
			continue
		}
		seen[string(body)] = true
		out = append(out, query{body: body, objects: objs})
	}
	return out
}

// zipfDraws returns n pool indices drawn Zipf(zipfS) over [0, pool).
func zipfDraws(rng *rand.Rand, pool, n int) []int {
	z := rand.NewZipf(rng, zipfS, 1, uint64(pool-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// Batch shapes. A source-major batch is a few sources refreshing many
// objects each: few sources turn dirty, so the refine touches few pairs. An
// object-major batch is one new object claimed by every source: every
// source turns dirty, so every pair is rescored — the expensive mode.
const (
	srcMajor = "src_major"
	objMajor = "obj_major"

	srcMajorClaims  = 220
	srcMajorObjects = 110
)

type batch struct {
	shape  string // srcMajor or objMajor; names the traced run's spans
	claims []sc.Claim
	body   []byte
}

// genBatches builds the append schedule: n batches, every objEvery-th one
// object-major and the rest source-major.
func genBatches(w *world, rng *rand.Rand, n, objEvery int) ([]batch, error) {
	objIndex := map[sc.ObjectID]int{}
	for i, o := range w.objects {
		objIndex[o] = i
	}
	m := min(srcMajorObjects, len(w.objects))
	k := max(2, (srcMajorClaims+m/2)/m)
	out := make([]batch, 0, n)
	held := 0
	for i := 0; i < n; i++ {
		b := batch{shape: srcMajor}
		if i%objEvery == objEvery-1 {
			if held == len(w.heldOut) {
				return nil, fmt.Errorf("world %s: %d batches need more than %d held-out objects", w.spec.name, n, len(w.heldOut))
			}
			b.shape, b.claims = objMajor, w.heldOut[held]
			held++
		} else {
			for _, si := range rng.Perm(len(w.indep))[:k] {
				s := w.indep[si]
				for _, oi := range rng.Perm(len(w.objects))[:m] {
					o := w.objects[oi]
					v, _ := w.truth.TrueNow(o)
					if rng.Float64() >= w.acc[s] {
						v = fmt.Sprintf("F%d_%d", objIndex[o], rng.Intn(falsePool))
					}
					b.claims = append(b.claims, sc.NewClaim(s, o, v))
				}
			}
		}
		req := server.AppendRequest{Claims: make([]server.ClaimJSON, len(b.claims))}
		for j, c := range b.claims {
			req.Claims[j] = server.ClaimJSON{Source: string(c.Source), Entity: c.Object.Entity,
				Attribute: c.Object.Attribute, Value: c.Value}
		}
		b.body, _ = json.Marshal(req)
		out = append(out, b)
	}
	return out, nil
}

// streamHash fingerprints everything a run sends to the program, so two
// runs can be shown to have sent the same thing.
type streamHash struct{ h hash.Hash }

func newStreamHash() *streamHash { return &streamHash{h: sha256.New()} }

func (s *streamHash) bytes(b []byte) {
	fmt.Fprintf(s.h, "%d:", len(b))
	s.h.Write(b)
}

func (s *streamHash) ints(xs []int) {
	var buf bytes.Buffer
	for _, x := range xs {
		fmt.Fprintf(&buf, "%d,", x)
	}
	s.bytes(buf.Bytes())
}

func (s *streamHash) queries(qs []query) {
	for _, q := range qs {
		s.bytes(q.body)
	}
}

func (s *streamHash) batches(bs []batch) {
	for _, b := range bs {
		s.bytes(b.body)
	}
}

func (s *streamHash) claims(cs []sc.Claim) {
	for _, c := range cs {
		fmt.Fprintf(s.h, "%s|%s|%s|%s\n", c.Source, c.Object.Entity, c.Object.Attribute, c.Value)
	}
}

func (s *streamHash) sum() string { return hex.EncodeToString(s.h.Sum(nil)) }
