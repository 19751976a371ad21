// Package server is the HTTP/JSON serving layer over a registry of
// sessions — the network boundary in front of the §4 applications.
//
// One Server hosts any number of named datasets, each a read-only
// session.Session, and answers
//
//	POST /v1/{dataset}/answer     online query answering (per-request
//	                              policy/cap/stop overrides, coalesced)
//	POST /v1/{dataset}/append     live ingest: append a claim batch and
//	                              epoch-swap in the refined successor
//	POST /v1/{dataset}/fuse       fused view of every object
//	POST /v1/{dataset}/recommend  trust-ranked source recommendation
//	POST /v1/{dataset}/link       record-linkage clusters
//	GET  /v1/{dataset}/accuracy   discovered per-source accuracies
//	GET  /v1/{dataset}/snapshot   stream the session snapshot (replica bootstrap)
//	POST /v1/{dataset}/adopt      pull + validate + register a peer snapshot
//	GET  /healthz                 liveness + registered datasets (+ ready bit)
//	GET  /readyz                  active readiness: every world verifiably opens
//	GET  /metrics                 Prometheus text metrics
//
// Sessions are immutable; an append builds a successor session (delta
// recompute over the batch) and atomically swaps it in, bumping the
// dataset's epoch. The epoch is part of every answer cache and singleflight
// key, and the swap flushes the dataset's cached answers, so no request can
// observe bytes computed from a retired epoch — requests already in flight
// finish against the session they resolved, with zero downtime.
//
// Responses are rendered by the Build* helpers in core.go from exactly the
// values a direct Session call returns, so an HTTP response is byte-for-byte
// the JSON encoding of the in-process result — the equivalence the golden
// tests pin. Request bodies are size-capped, identical concurrent answer
// requests are computed once (singleflight), and every request is counted
// in the metrics with a latency histogram and an in-flight gauge.
//
// The Server is an http.Handler; lifecycle (ListenAndServe, graceful
// Shutdown) belongs to the caller.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/metrics"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/probdb"
	"sourcecurrents/internal/session"
	"sourcecurrents/internal/snapio"
)

// DefaultMaxRequestBytes caps request bodies when Options.MaxRequestBytes
// is zero.
const DefaultMaxRequestBytes = 1 << 20

// Options tunes the server.
type Options struct {
	// MaxRequestBytes caps the request body size; requests beyond it are
	// answered 413. Zero means DefaultMaxRequestBytes.
	MaxRequestBytes int64
	// AnswerCacheSize bounds the server-side answer cache (entries across
	// all datasets). Zero disables caching — the default, so embedding the
	// handler changes nothing unless asked to.
	AnswerCacheSize int
	// AnswerCacheTTL expires cached answers after this duration; zero means
	// entries live until evicted by capacity. Ignored unless
	// AnswerCacheSize > 0.
	AnswerCacheTTL time.Duration
	// PersistDir, when set, makes every accepted append durable: the batch
	// is written as a log segment (<dataset>.<epoch>.seg) in this directory
	// before the swap, and LoadDir replays segments on cold start. Empty
	// disables persistence (appends are memory-only).
	PersistDir string
	// CompactEvery, with PersistDir set, compacts a dataset's log once it
	// accumulates this many segments: the refined session is snapshotted to
	// <dataset>.snap (atomic rename) and the segments it supersedes move to
	// PersistDir/archive/. Zero means DefaultCompactEvery; negative disables
	// compaction.
	CompactEvery int
	// Logf, when non-nil, receives operational log lines (append
	// persistence, compaction). Pass nil to run silently.
	Logf func(format string, args ...any)
	// AdoptDir, when set, enables POST /v1/{dataset}/adopt: fetched
	// snapshots are validated and installed here (typically the same
	// directory the registry loaded from). Empty disables adoption.
	AdoptDir string
	// SessionCfg is the session configuration adopted snapshots load under —
	// the same config the server's other worlds use, so an adopted world
	// serves identically to a locally loaded one.
	SessionCfg session.Config
	// OwnerOf, when non-nil, resolves a dataset name to the fleet address
	// that owns it (the ring primary). Unknown-dataset 404s then carry the
	// owner in the error body so a client that hit the wrong shard can
	// retry at the right one.
	OwnerOf func(dataset string) (addr string, ok bool)
}

// DefaultCompactEvery is the segment count that triggers log compaction
// when Options.CompactEvery is zero.
const DefaultCompactEvery = 16

// Server serves a Registry over HTTP. Create with New; safe for concurrent
// use.
type Server struct {
	reg     *Registry
	opt     Options
	page    metrics.Registry // everything /metrics renders
	met     *requestMetrics
	cache   *answerCache
	answers flightGroup
}

// New returns a Server over the registry.
func New(reg *Registry, opt Options) *Server {
	if opt.MaxRequestBytes <= 0 {
		opt.MaxRequestBytes = DefaultMaxRequestBytes
	}
	if opt.CompactEvery == 0 {
		opt.CompactEvery = DefaultCompactEvery
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	// Registration order is the /metrics page order.
	s := &Server{reg: reg, opt: opt}
	s.met = newRequestMetrics(&s.page)
	s.cache = newAnswerCache(opt.AnswerCacheSize, opt.AnswerCacheTTL, &s.page)
	registerRegistryMetrics(&s.page, reg)
	return s
}

// ErrorResponse is the JSON error payload. Owner, when set on an
// unknown-dataset 404, is the fleet address of the shard that does serve
// the dataset — the hint `currents append` follows to reach the primary.
type ErrorResponse struct {
	Error string `json:"error"`
	Owner string `json:"owner,omitempty"`
}

// epochConflict is the 409 body of a conditional append whose expectation
// failed: nothing was applied, and Epoch is where the dataset stands.
type epochConflict struct {
	Message string `json:"error"`
	Epoch   uint64 `json:"epoch"`
}

func (e *epochConflict) Error() string { return e.Message }

// response is an internal fully-rendered reply.
type response struct {
	status      int
	contentType string
	body        []byte
	// headers are extra response headers (the snapshot stream's CRC).
	headers map[string]string
}

// encodeBuffer is a pooled JSON encode buffer: the encoder's scratch and
// the output buffer's capacity are recycled across requests, so a steady
// state encode allocates only the final body copy.
type encodeBuffer struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	eb := &encodeBuffer{}
	eb.enc = json.NewEncoder(&eb.buf)
	return eb
}}

// jsonResponse encodes v (with a trailing newline, byte-identical to
// json.Marshal plus '\n') into a response using a pooled buffer.
func jsonResponse(status int, v any) response {
	eb := encPool.Get().(*encodeBuffer)
	eb.buf.Reset()
	if err := eb.enc.Encode(v); err != nil {
		encPool.Put(eb)
		return response{
			status:      http.StatusInternalServerError,
			contentType: "application/json",
			body:        []byte(`{"error":"encoding failure"}` + "\n"),
		}
	}
	body := make([]byte, eb.buf.Len())
	copy(body, eb.buf.Bytes())
	encPool.Put(eb)
	return response{status: status, contentType: "application/json", body: body}
}

// errResponse maps an error to its HTTP form.
func errResponse(err error) response {
	return jsonResponse(statusOf(err), ErrorResponse{Error: err.Error()})
}

// statusOf maps errors to status codes: request-caused errors — the
// ErrBadRequest wrapper and the probdb input sentinels — are 400, body-cap
// violations 413, everything else 500.
func statusOf(err error) int {
	var maxErr *http.MaxBytesError
	switch {
	case errors.As(err, &maxErr):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrBadRequest),
		errors.Is(err, probdb.ErrProbOutOfRange),
		errors.Is(err, probdb.ErrDepenMismatch),
		errors.Is(err, probdb.ErrDepenOutOfRange):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// ServeHTTP routes requests. Routing is hand-rolled (two fixed paths plus
// /v1/{dataset}/{op}) so it works identically on every toolchain the
// module's go directive admits.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.met.inFlight.Add(1)
	defer s.met.inFlight.Add(-1)

	op, resp := s.route(w, r)
	for k, v := range map[string]string{
		"Content-Type":           resp.contentType,
		"X-Content-Type-Options": "nosniff",
	} {
		w.Header().Set(k, v)
	}
	for k, v := range resp.headers {
		w.Header().Set(k, v)
	}
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
	s.met.observe(op, time.Since(start), resp.status)
}

// route dispatches to the operation handlers, returning the metrics
// operation label and the rendered response.
func (s *Server) route(w http.ResponseWriter, r *http.Request) (string, response) {
	path := r.URL.Path
	switch path {
	case "/healthz":
		if r.Method != http.MethodGet {
			return "healthz", methodNotAllowed(w, http.MethodGet)
		}
		// Liveness plus the loading-vs-ready distinction: Ready is a cheap
		// all-verified check that never triggers a load, so a booting lazy
		// server answers ok/ready:false until its worlds prove loadable.
		return "healthz", jsonResponse(http.StatusOK,
			BuildHealthResponse(s.reg.Names(), s.reg.AllVerified()))
	case "/readyz":
		if r.Method != http.MethodGet {
			return "readyz", methodNotAllowed(w, http.MethodGet)
		}
		return "readyz", s.handleReadyz()
	case "/metrics":
		if r.Method != http.MethodGet {
			return "metrics", methodNotAllowed(w, http.MethodGet)
		}
		return "metrics", response{
			status:      http.StatusOK,
			contentType: "text/plain; version=0.0.4; charset=utf-8",
			body:        s.page.Gather().Text(),
		}
	}

	rest, ok := strings.CutPrefix(path, "/v1/")
	if !ok {
		return "other", jsonResponse(http.StatusNotFound,
			ErrorResponse{Error: "not found (try /healthz, /metrics, /v1/{dataset}/{op})"})
	}
	name, op, ok := strings.Cut(rest, "/")
	if !ok || name == "" || op == "" || strings.Contains(op, "/") {
		return "other", jsonResponse(http.StatusNotFound,
			ErrorResponse{Error: "not found: want /v1/{dataset}/{answer|fuse|recommend|link|accuracy|history|trajectory}"})
	}
	// Adoption targets a dataset this shard does not serve yet, so it is
	// dispatched before the registry lookup that would 404 it.
	if op == "adopt" {
		if r.Method != http.MethodPost {
			return "adopt", methodNotAllowed(w, http.MethodPost)
		}
		return "adopt", s.handleAdopt(r, name)
	}
	// Acquire pins the session for the request's lifetime: a lazy world
	// loads on this first touch, and eviction under -max-resident cannot
	// unmap the snapshot while any request still reads from it. The pin
	// also covers any historical session resolved below — the grave reaper
	// closes retired mapped epochs only once the entry's pins drain.
	sess, epoch, release, err := s.reg.Acquire(name)
	if errors.Is(err, ErrUnknownDataset) {
		er := ErrorResponse{Error: fmt.Sprintf("unknown dataset %q", name)}
		// In a fleet, "unknown here" usually means "owned elsewhere": embed
		// the ring primary so the client can retry at the right shard.
		if s.opt.OwnerOf != nil {
			if owner, ok := s.opt.OwnerOf(name); ok {
				er.Owner = owner
				er.Error += fmt.Sprintf(" (owned by %s)", owner)
			}
		}
		return "other", jsonResponse(http.StatusNotFound, er)
	}
	if err != nil {
		return "other", errResponse(err)
	}
	defer release()

	// ?as_of=<epoch|timestamp> retargets the read operations at a retained
	// historical epoch; the resolved epoch replaces the current one in
	// every cache and singleflight key, so historical responses cache under
	// their own immutable generation.
	if spec := r.URL.Query().Get("as_of"); spec != "" {
		switch op {
		case "answer", "fuse", "recommend", "accuracy":
			hs, he, err := ResolveAsOf(sess, spec)
			if err != nil {
				return op, errResponse(err)
			}
			sess, epoch = hs, he
			s.met.historical.Add(1)
		}
	}

	switch op {
	case "answer":
		if r.Method != http.MethodPost {
			return op, methodNotAllowed(w, http.MethodPost)
		}
		return op, s.handleAnswer(w, r, name, epoch, sess)
	case "append":
		if r.Method != http.MethodPost {
			return op, methodNotAllowed(w, http.MethodPost)
		}
		return op, s.handleAppend(w, r, name)
	case "fuse":
		if r.Method != http.MethodPost {
			return op, methodNotAllowed(w, http.MethodPost)
		}
		return op, s.handleFuse(sess)
	case "recommend":
		if r.Method != http.MethodPost {
			return op, methodNotAllowed(w, http.MethodPost)
		}
		return op, s.handleRecommend(w, r, sess)
	case "link":
		if r.Method != http.MethodPost {
			return op, methodNotAllowed(w, http.MethodPost)
		}
		return op, s.handleLink(w, r, sess)
	case "accuracy":
		if r.Method != http.MethodGet {
			return op, methodNotAllowed(w, http.MethodGet)
		}
		return op, jsonResponse(http.StatusOK, BuildAccuracyResponse(ExecAccuracy(sess)))
	case "history":
		if r.Method != http.MethodGet {
			return op, methodNotAllowed(w, http.MethodGet)
		}
		return op, jsonResponse(http.StatusOK, BuildHistoryResponse(name, sess))
	case "trajectory":
		if r.Method != http.MethodGet {
			return op, methodNotAllowed(w, http.MethodGet)
		}
		return op, s.handleTrajectory(r, name, sess)
	case "snapshot":
		if r.Method != http.MethodGet {
			return op, methodNotAllowed(w, http.MethodGet)
		}
		return op, s.handleSnapshot(sess)
	}
	return "other", jsonResponse(http.StatusNotFound,
		ErrorResponse{Error: fmt.Sprintf("unknown operation %q", op)})
}

func methodNotAllowed(w http.ResponseWriter, allow string) response {
	w.Header().Set("Allow", allow)
	return jsonResponse(http.StatusMethodNotAllowed, ErrorResponse{Error: "method not allowed"})
}

// readBody reads the size-capped request body.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opt.MaxRequestBytes))
	if err != nil {
		return nil, err
	}
	return body, nil
}

// decodeBody strictly decodes a JSON body into v; empty bodies leave v at
// its zero value.
func decodeBody(body []byte, v any) error {
	if len(body) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	// Reject trailing garbage after the JSON value.
	if dec.More() {
		return fmt.Errorf("%w: trailing data after JSON body", ErrBadRequest)
	}
	return nil
}

// handleAnswer serves an answer request through two read-mostly layers
// keyed on the normalized request (dataset + epoch + AnswerRequest.cacheKey):
// the LRU answer cache returns previously rendered bytes for a repeated
// request, and the singleflight group computes a cache-missing response
// once for every identical concurrent request. Keying on the decoded
// request rather than the raw body means whitespace/field-order variants
// share both layers; the rendered bytes are identical either way. The epoch is the one read atomically with sess:
// a response computed from a session is only ever cached or joined under
// that session's own generation, so an epoch swap can never surface bytes
// from a retired session.
func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request, name string, epoch uint64, sess *session.Session) response {
	body, err := s.readBody(w, r)
	if err != nil {
		return errResponse(err)
	}
	var req AnswerRequest
	if err := decodeBody(body, &req); err != nil {
		return errResponse(err)
	}
	key := name + "\x00" + strconv.FormatUint(epoch, 10) + "\x00" + req.cacheKey()
	if cached, ok := s.cache.get(key); ok {
		return response{status: http.StatusOK, contentType: "application/json", body: cached}
	}
	res, shared := s.answers.do(key, func() flightResult {
		resp := answerResponse(sess, req)
		return flightResult{status: resp.status, body: resp.body}
	})
	if shared {
		s.met.coalesced.Add(1)
	}
	if res.status == http.StatusOK {
		s.cache.put(key, res.body)
	}
	return response{status: res.status, contentType: "application/json", body: res.body}
}

// answerResponse executes one decoded answer request.
func answerResponse(sess *session.Session, req AnswerRequest) response {
	res, err := ExecAnswer(sess, req)
	if err != nil {
		return errResponse(err)
	}
	return jsonResponse(http.StatusOK, BuildAnswerResponse(res, req.IncludeSteps))
}

// handleAppend ingests one claim batch: it builds the refined successor
// session off the request path's current session, persists the batch as a
// log segment when configured (a failed write aborts the ingest — nothing
// swaps that isn't durable), compacts the log when it is due, and
// epoch-swaps the successor in. Appends to the same dataset — segment write
// and compaction included — are serialized by the registry's per-entry
// update mutex; readers are never blocked and keep serving the retired
// session until the swap lands. After the swap the cached answers of the
// epoch it pushed below the retention floor are flushed — no request can
// address them any more; the flush reclaims them.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request, name string) response {
	body, err := s.readBody(w, r)
	if err != nil {
		return errResponse(err)
	}
	var req AppendRequest
	if err := decodeBody(body, &req); err != nil {
		return errResponse(err)
	}
	batch, err := req.batch()
	if err != nil {
		return errResponse(err)
	}
	// ?expect_epoch=e applies the batch only to a dataset standing at epoch
	// e (a router's replica fan-out sends the primary's pre-append epoch);
	// anywhere else it is a 409 carrying the epoch, and nothing is applied.
	query := r.URL.Query()
	expect, conditional := uint64(0), query.Has("expect_epoch")
	if conditional {
		if expect, err = strconv.ParseUint(query.Get("expect_epoch"), 10, 64); err != nil {
			return errResponse(fmt.Errorf("%w: expect_epoch: %v", ErrBadRequest, err))
		}
	}
	next, epoch, err := s.reg.Update(name, func(cur *session.Session) (*session.Session, error) {
		// A registry epoch is its dataset's append-log epoch, and the update
		// lock holds it still between this check and the swap.
		if have := uint64(cur.DatasetEpoch()); conditional && have != expect {
			return nil, &epochConflict{
				Message: fmt.Sprintf("dataset %q is at epoch %d, append expected %d", name, have, expect),
				Epoch:   have,
			}
		}
		succ, err := cur.Append(batch)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		if s.opt.PersistDir != "" {
			if err := s.persistSegment(name, succ.Dataset().Epoch(), batch); err != nil {
				return nil, err
			}
			// Still under the update lock: were compaction to run after it,
			// an older append's snapshot could land over a newer one's whose
			// compaction had already archived the segments between them.
			if s.opt.CompactEvery > 0 {
				s.maybeCompact(name, succ)
			}
		}
		return succ, nil
	})
	var conflict *epochConflict
	if errors.As(err, &conflict) {
		return jsonResponse(http.StatusConflict, conflict)
	}
	if err != nil {
		// The route already resolved the dataset, so a failure here is the
		// batch (400 via the ErrBadRequest wrap) or persistence (500).
		return errResponse(err)
	}
	// Epochs are immutable worlds, so cached answers for epochs still inside
	// the retention window stay valid — and servable via ?as_of= — across
	// the swap. Only the epoch the swap pushed below the retention floor is
	// flushed: its answers are no longer addressable, so the flush is pure
	// memory reclamation. With RetainEpochs 0 the floor is the new epoch and
	// this reduces to the old swap-and-discard flush of the predecessor.
	if floor := next.HistoryFloor(); floor > 0 {
		dropped := strconv.FormatUint(uint64(floor-1), 10)
		if n := s.cache.flushPrefix(name + "\x00" + dropped + "\x00"); n > 0 {
			s.opt.Logf("append %s: flushed %d cached answers for pruned epoch %s", name, n, dropped)
		}
	}
	return jsonResponse(http.StatusOK, BuildAppendResponse(name, epoch, len(batch), next))
}

// persistSegment writes one append batch as <name>.<epoch>.seg via a
// temporary file and rename, so a crash mid-write leaves no torn segment.
func (s *Server) persistSegment(name string, epoch int, batch []model.Claim) error {
	path := filepath.Join(s.opt.PersistDir, fmt.Sprintf("%s.%06d.seg", name, epoch))
	tmp, err := os.CreateTemp(s.opt.PersistDir, ".seg-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := dataset.WriteSegment(tmp, batch); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// maybeCompact folds a dataset's accumulated log segments into a fresh
// session snapshot once there are CompactEvery of them: the refined serving
// state is written to <name>.snap (atomic rename — no re-solve, the
// snapshot captures the precompute), then the superseded segments move into
// the archive/ subdirectory. Archiving instead of deleting keeps every
// epoch's batch addressable on disk — the raw material for rebuilding any
// historical epoch a snapshot's log no longer carries — while keeping the
// hot directory's replay set minimal (LoadDir ignores subdirectories, and
// segments at or below the snapshot's epoch are skipped at replay anyway).
// The snapshot lands before any segment moves, so a crash at any point
// leaves a directory LoadDir restores exactly. It runs inside the append's
// update critical section, so snapshots land in epoch order. Compaction
// failure is logged, never surfaced: the append itself is already durable
// in its segment.
func (s *Server) maybeCompact(name string, sess *session.Session) {
	segs, err := filepath.Glob(filepath.Join(s.opt.PersistDir, name+".*.seg"))
	if err != nil || len(segs) < s.opt.CompactEvery {
		return
	}
	snapPath := filepath.Join(s.opt.PersistDir, name+".snap")
	tmp, err := os.CreateTemp(s.opt.PersistDir, ".snap-*")
	if err != nil {
		s.opt.Logf("compact %s: %v", name, err)
		return
	}
	defer os.Remove(tmp.Name())
	if err := sess.WriteSnapshot(tmp); err != nil {
		tmp.Close()
		s.opt.Logf("compact %s: %v", name, err)
		return
	}
	if err := tmp.Close(); err != nil {
		s.opt.Logf("compact %s: %v", name, err)
		return
	}
	if err := os.Rename(tmp.Name(), snapPath); err != nil {
		s.opt.Logf("compact %s: %v", name, err)
		return
	}
	archiveDir := filepath.Join(s.opt.PersistDir, "archive")
	if err := os.MkdirAll(archiveDir, 0o755); err != nil {
		s.opt.Logf("compact %s: archive dir: %v", name, err)
		return
	}
	archived := 0
	for _, seg := range segs {
		if sf, ok := parseSegmentName(strings.TrimSuffix(filepath.Base(seg), ".seg")); ok &&
			sf.epoch <= sess.Dataset().Epoch() {
			if err := os.Rename(seg, filepath.Join(archiveDir, filepath.Base(seg))); err == nil {
				archived++
			}
		}
	}
	s.opt.Logf("compacted %s: snapshot at epoch %d, %d segments archived",
		name, sess.Dataset().Epoch(), archived)
}

func (s *Server) handleFuse(sess *session.Session) response {
	res, err := ExecFuse(sess)
	if err != nil {
		return errResponse(err)
	}
	return jsonResponse(http.StatusOK, BuildFuseResponse(sess.Dataset().Objects(), res))
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request, sess *session.Session) response {
	body, err := s.readBody(w, r)
	if err != nil {
		return errResponse(err)
	}
	var req RecommendRequest
	if err := decodeBody(body, &req); err != nil {
		return errResponse(err)
	}
	top, err := ExecRecommend(sess, req)
	if err != nil {
		return errResponse(err)
	}
	return jsonResponse(http.StatusOK, BuildRecommendResponse(top))
}

func (s *Server) handleLink(w http.ResponseWriter, r *http.Request, sess *session.Session) response {
	body, err := s.readBody(w, r)
	if err != nil {
		return errResponse(err)
	}
	var req LinkRequest
	if err := decodeBody(body, &req); err != nil {
		return errResponse(err)
	}
	res, err := ExecLink(sess, req)
	if err != nil {
		return errResponse(err)
	}
	return jsonResponse(http.StatusOK, BuildLinkResponse(res))
}

// handleReadyz actively verifies every registered world opens (cached after
// the first success), answering 200 only when the whole shard is servable.
// The body carries the dataset inventory either way — the router's prober
// reads it to build the fleet catalog — and per-dataset failures when
// unready, so an operator can see exactly which snapshot is bad.
func (s *Server) handleReadyz() response {
	checks := s.reg.VerifyAll()
	resp := ReadyResponse{Status: "ready"}
	status := http.StatusOK
	for _, c := range checks {
		resp.Datasets = append(resp.Datasets, c.Name)
		if c.Err != nil {
			resp.Failures = append(resp.Failures, ReadyFailure{Dataset: c.Name, Error: c.Err.Error()})
		}
	}
	if len(resp.Failures) > 0 {
		resp.Status = "unready"
		status = http.StatusServiceUnavailable
	}
	if resp.Datasets == nil {
		resp.Datasets = []string{}
	}
	resp.Epochs = s.reg.KnownEpochs()
	return jsonResponse(status, resp)
}

// handleSnapshot streams the session's snapshot container: the mapped
// bytes verbatim when the session is snapshot-backed (copied while the
// registry pin still holds — the response outlives the pin), rendered fresh
// for heap-built or appended sessions so every world is adoptable. The
// whole-stream CRC rides in a header; the container's section payloads are
// unchecksummed by design, so this is what catches in-transit bit flips.
func (s *Server) handleSnapshot(sess *session.Session) response {
	var body []byte
	if mapped := sess.MappedSnapshot(); mapped != nil {
		body = append([]byte(nil), mapped...)
	} else {
		var buf bytes.Buffer
		if err := sess.WriteSnapshot(&buf); err != nil {
			return errResponse(err)
		}
		body = buf.Bytes()
	}
	return response{
		status:      http.StatusOK,
		contentType: "application/octet-stream",
		body:        body,
		headers: map[string]string{
			SnapshotCRCHeader: strconv.FormatUint(uint64(crc32.ChecksumIEEE(body)), 10),
		},
	}
}

// AdoptResponse is the /v1/{dataset}/adopt success payload.
type AdoptResponse struct {
	Dataset string `json:"dataset"`
	// Status is "adopted" for a fresh pull, "exists" when the shard already
	// served the dataset (idempotent retry), "replaced" when ?replace=1
	// overwrote a stale world with a newer snapshot, and "current" when
	// replace mode found nothing newer to install.
	Status string `json:"status"`
}

// handleAdopt pulls a snapshot stream from the `from` URL and registers it
// under name. Integrity failures surface as 502 (the upstream bytes were
// bad), bad requests as 400; an already-registered dataset is success —
// unless ?replace=1 (the router's repair mode), which overwrites the
// served world when the fetched snapshot's epoch is ahead. A replace
// flushes every cached answer for the dataset: the old chain's epochs are
// gone, and no stale bytes may outlive it.
func (s *Server) handleAdopt(r *http.Request, name string) response {
	from := r.URL.Query().Get("from")
	if from == "" {
		return errResponse(fmt.Errorf("%w: adopt needs ?from=<snapshot URL>", ErrBadRequest))
	}
	replace := false
	switch r.URL.Query().Get("replace") {
	case "1", "true":
		replace = true
	}
	var status string
	var err error
	if replace {
		// The flush runs inside Replace's critical section, before the new
		// chain becomes visible: no request routed after the swap can hit a
		// cache entry keyed to the replaced chain's epochs.
		status, err = AdoptReplaceFromURL(s.reg, name, from, s.opt.AdoptDir, s.opt.SessionCfg, nil, func() {
			if n := s.cache.flushPrefix(name + "\x00"); n > 0 {
				s.opt.Logf("replace %s: flushed %d cached answers from the replaced chain", name, n)
			}
		})
	} else {
		status = "adopted"
		err = AdoptFromURL(s.reg, name, from, s.opt.AdoptDir, s.opt.SessionCfg, nil)
	}
	switch {
	case errors.Is(err, ErrAlreadyRegistered):
		return jsonResponse(http.StatusOK, AdoptResponse{Dataset: name, Status: "exists"})
	case errors.Is(err, snapio.ErrCorrupt):
		return jsonResponse(http.StatusBadGateway, ErrorResponse{Error: err.Error()})
	case err != nil:
		return errResponse(err)
	}
	s.opt.Logf("adopt %q from %s: %s", name, from, status)
	return jsonResponse(http.StatusOK, AdoptResponse{Dataset: name, Status: status})
}
