// Package server is the HTTP/JSON serving layer over a registry of
// sessions — the network boundary in front of the §4 applications.
//
// One Server hosts any number of named datasets, each a read-only
// session.Session, and answers
//
//	POST /v1/{dataset}/answer     online query answering (per-request
//	                              policy/cap/stop overrides, coalesced)
//	POST /v1/{dataset}/append     live ingest: append a claim batch (JSON,
//	                              or a primary's delta frame) and epoch-swap
//	                              in the refined successor
//	POST /v1/{dataset}/fuse       fused view of every object
//	POST /v1/{dataset}/recommend  trust-ranked source recommendation
//	POST /v1/{dataset}/link       record-linkage clusters
//	GET  /v1/{dataset}/accuracy   discovered per-source accuracies
//	GET  /v1/{dataset}/snapshot   stream the session snapshot (replica bootstrap)
//	GET  /v1/{dataset}/delta      ?since=e: the delta frame from epoch e to
//	                              the current one (replica fan-out and repair)
//	POST /v1/{dataset}/adopt      pull + validate + register a peer snapshot
//	GET  /healthz                 liveness + registered datasets
//	GET  /readyz                  readiness: the datasets and their epochs
//	GET  /metrics                 Prometheus text metrics
//
// Sessions are immutable; an append builds a successor session (delta
// recompute over the batch) and atomically swaps it in, advancing the
// dataset's epoch. The epoch is part of every answer cache and singleflight
// key, so no request can observe bytes computed from another epoch than the
// one it resolved; the answers of retained epochs stay cached and servable
// through ?as_of=, and the swap flushes only those of the epochs it pushed
// below the retention floor. Requests already in flight finish against the
// session they resolved, with zero downtime.
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
	"io"
	"mime"
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
	// handler changes nothing unless asked to. An entry leaves under LRU
	// pressure or when its epoch falls below the retention floor: an epoch's
	// answers never change, so nothing else expires them.
	AnswerCacheSize int
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
	s.cache = newAnswerCache(opt.AnswerCacheSize, &s.page)
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

// statusOf maps errors to status codes: request-caused errors (the
// ErrBadRequest wrapper) are 400, body-cap violations 413, everything else
// 500.
func statusOf(err error) int {
	var maxErr *http.MaxBytesError
	switch {
	case errors.As(err, &maxErr):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrBadRequest):
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
	h := w.Header()
	h.Set("Content-Type", resp.contentType)
	h.Set("X-Content-Type-Options", "nosniff")
	// A declared length keeps a reply past net/http's 2 KB buffer from being
	// chunk-encoded, and lets the router read it into one exact-size buffer.
	h.Set("Content-Length", strconv.Itoa(len(resp.body)))
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
		return "healthz", jsonResponse(http.StatusOK, BuildHealthResponse(s.reg.Names()))
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
			ErrorResponse{Error: "not found: want /v1/{dataset}/{answer|append|fuse|recommend|link|accuracy|history|trajectory|snapshot|delta|adopt}"})
	}
	// Adoption targets a dataset this shard does not serve yet, so it is
	// dispatched before the registry lookup that would 404 it.
	if op == "adopt" {
		if r.Method != http.MethodPost {
			return "adopt", methodNotAllowed(w, http.MethodPost)
		}
		return "adopt", s.handleAdopt(r, name)
	}
	sess, epoch, err := s.reg.Current(name)
	if err != nil { // the one error: ErrUnknownDataset
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
	case "delta":
		if r.Method != http.MethodGet {
			return op, methodNotAllowed(w, http.MethodGet)
		}
		return op, s.handleDelta(r, sess)
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
// keyed on the raw request body (dataset + epoch + body): the LRU answer
// cache returns previously rendered bytes for a repeated request, and the
// singleflight group computes a cache-missing response once for every
// identical concurrent request. The lookup comes before any decoding, so a
// hit does no JSON work; only a miss decodes and validates, and only a 200
// is cached, so a hit returns bytes whose request was validated when they
// were first stored. A whitespace or field-order variant of a cached body
// costs one miss (one plan) and then caches under its own key; the rendered
// bytes are identical either way. The epoch is the one read atomically with
// sess: a response computed from a session is only ever cached or joined
// under that session's own generation, so an epoch swap can never surface
// bytes from a retired session.
func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request, name string, epoch uint64, sess *session.Session) response {
	body, err := s.readBody(w, r)
	if err != nil {
		return errResponse(err)
	}
	key := name + "\x00" + strconv.FormatUint(epoch, 10) + "\x00" + string(body)
	if cached, ok := s.cache.get(key); ok {
		return response{status: http.StatusOK, contentType: "application/json", body: cached}
	}
	res, shared := s.answers.do(key, func() flightResult {
		resp := answerResponse(sess, body)
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

// answerResponse decodes, validates and executes one answer request body.
func answerResponse(sess *session.Session, body []byte) response {
	var req AnswerRequest
	if err := decodeBody(body, &req); err != nil {
		return errResponse(err)
	}
	res, err := ExecAnswer(sess, req)
	if err != nil {
		return errResponse(err)
	}
	return jsonResponse(http.StatusOK, BuildAnswerResponse(res, req.IncludeSteps))
}

// maxDeltaBytes caps a delta append's body. A delta carries what a solve
// rewrote, which on a many-source world outgrows any JSON batch: an
// object-major batch on 550 sources rewrites ~150k pair records, 8.4 MB.
const maxDeltaBytes = 256 << 20

// handleAppend ingests one claim batch: it builds the refined successor
// session off the request path's current session, persists the batch as a
// log segment when configured (a failed write aborts the ingest — nothing
// swaps that isn't durable), compacts the log when it is due, and
// epoch-swaps the successor in. Appends to the same dataset — segment write
// and compaction included — are serialized by the registry's per-entry
// update mutex; readers are never blocked and keep serving the retired
// session until the swap lands. After the swap the cached answers of the
// epochs it pushed below the retention floor are flushed — no request can
// address them any more; the flush reclaims them.
//
// A body of session.DeltaContentType is a primary's delta frame (GET delta)
// rather than a JSON batch: the successor is the frame's batches with the
// primary's solves applied (Session.AppendDelta), not solved again — how a
// replica follows its primary, one batch behind on the fan-out or any number
// behind on a repair. It must be conditional, since a delta only applies to
// the epoch it was taken since; each of its batches persists as its own
// segment, and everything else is the same.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request, name string) response {
	// ?expect_epoch=e applies the batch only to a dataset standing at epoch
	// e (a router's replica fan-out sends the primary's pre-append epoch);
	// anywhere else it is a 409 carrying the epoch, and nothing is applied.
	query := r.URL.Query()
	expect, conditional := uint64(0), query.Has("expect_epoch")
	if conditional {
		var err error
		if expect, err = strconv.ParseUint(query.Get("expect_epoch"), 10, 64); err != nil {
			return errResponse(fmt.Errorf("%w: expect_epoch: %v", ErrBadRequest, err))
		}
	}
	mt, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	delta := mt == session.DeltaContentType
	var advance func(cur *session.Session) (*session.Session, error)
	if delta {
		if !conditional {
			return errResponse(fmt.Errorf("%w: a delta append needs ?expect_epoch=", ErrBadRequest))
		}
		frame, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxDeltaBytes))
		if err != nil {
			return errResponse(err)
		}
		advance = func(cur *session.Session) (*session.Session, error) { return cur.AppendDelta(frame) }
	} else {
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
		advance = func(cur *session.Session) (*session.Session, error) { return cur.Append(batch) }
	}
	var floor int    // the retention floor before the swap
	var appended int // the claims of every batch the append applied
	next, epoch, err := s.reg.ingest(name, func(cur *session.Session) (*session.Session, error) {
		// A registry epoch is its dataset's append-log epoch, and the update
		// lock holds it still between this check and the swap.
		have := uint64(cur.DatasetEpoch())
		if conditional && have != expect {
			return nil, &epochConflict{
				Message: fmt.Sprintf("dataset %q is at epoch %d, append expected %d", name, have, expect),
				Epoch:   have,
			}
		}
		succ, err := advance(cur)
		if errors.Is(err, session.ErrDeltaEpoch) {
			return nil, &epochConflict{Message: fmt.Sprintf("dataset %q: %v", name, err), Epoch: have}
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		if s.opt.PersistDir != "" {
			d := succ.Dataset()
			for e := int(have) + 1; e <= d.Epoch(); e++ {
				if err := s.persistSegment(name, e, d.BatchAt(e)); err != nil {
					return nil, err
				}
			}
			// Still under the update lock: were compaction to run after it,
			// an older append's snapshot could land over a newer one's whose
			// compaction had already archived the segments between them.
			if s.opt.CompactEvery > 0 {
				s.maybeCompact(name, succ)
			}
		}
		floor = cur.HistoryFloor()
		d := succ.Dataset()
		appended = d.Len() - d.LogBounds()[have]
		return succ, nil
	}, delta)
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
	// the swap. Only the epochs the swap pushed below the retention floor are
	// flushed: their answers are no longer addressable, so the flush is pure
	// memory reclamation. With RetainEpochs 0 the floor is the new epoch and
	// this reduces to swap-and-discard of the retired epochs' answers.
	if pruned := next.HistoryFloor(); pruned > floor {
		prefixes := make([]string, 0, pruned-floor)
		for e := floor; e < pruned; e++ {
			prefixes = append(prefixes, name+"\x00"+strconv.Itoa(e)+"\x00")
		}
		if n := s.cache.flushPrefix(prefixes...); n > 0 {
			s.opt.Logf("append %s: flushed %d cached answers for pruned epochs %d..%d", name, n, floor, pruned-1)
		}
	}
	return jsonResponse(http.StatusOK, BuildAppendResponse(name, epoch, appended, next))
}

// handleDelta serves the delta frame since ?since=e — the batches appended
// after epoch e and what the solves across them overwrote — from the current
// session. A replica standing at e appends it (handleAppend) instead of
// solving the batches again. A since at or past the current epoch is a 409
// carrying the epoch: there is nothing to ship.
func (s *Server) handleDelta(r *http.Request, sess *session.Session) response {
	since, err := strconv.Atoi(r.URL.Query().Get("since"))
	if err != nil || since < 0 {
		return errResponse(fmt.Errorf("%w: delta needs ?since=<an epoch>", ErrBadRequest))
	}
	if cur := sess.DatasetEpoch(); since >= cur {
		return jsonResponse(http.StatusConflict, &epochConflict{
			Message: fmt.Sprintf("no delta since epoch %d: the dataset is at epoch %d", since, cur),
			Epoch:   uint64(cur),
		})
	}
	var buf bytes.Buffer
	if err := sess.WriteDelta(&buf, since); err != nil {
		return errResponse(err)
	}
	return response{status: http.StatusOK, contentType: session.DeltaContentType, body: buf.Bytes()}
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

// handleReadyz reports the shard ready with its dataset inventory — the
// router's prober reads it to build the fleet catalog — and each dataset's
// epoch. A world is open before it is registered, so a shard that answers is
// servable.
func (s *Server) handleReadyz() response {
	return jsonResponse(http.StatusOK, ReadyResponse{
		Status:   "ready",
		Datasets: s.reg.Names(),
		Epochs:   s.reg.KnownEpochs(),
	})
}

// handleSnapshot streams the session's snapshot container, rendered by
// WriteSnapshot — for a world booted from a file, that file's bytes — so
// every world is adoptable. The container's seal covers every section, so
// the adopting shard's open is what catches a bit flipped in transit. The
// render is buffered, so a failed one still answers 500.
func (s *Server) handleSnapshot(sess *session.Session) response {
	var buf bytes.Buffer
	if err := sess.WriteSnapshot(&buf); err != nil {
		return errResponse(err)
	}
	return response{status: http.StatusOK, contentType: "application/octet-stream", body: buf.Bytes()}
}

// AdoptResponse is the /v1/{dataset}/adopt success payload.
type AdoptResponse struct {
	Dataset string `json:"dataset"`
	// Status is "adopted" for a fresh pull and "exists" when the shard
	// already served the dataset (idempotent retry).
	Status string `json:"status"`
}

// handleAdopt pulls a snapshot stream from the `from` URL and registers it
// under name. Integrity failures surface as 502 (the upstream bytes were
// bad), bad requests as 400; an already-registered dataset is success.
func (s *Server) handleAdopt(r *http.Request, name string) response {
	from := r.URL.Query().Get("from")
	if from == "" {
		return errResponse(fmt.Errorf("%w: adopt needs ?from=<snapshot URL>", ErrBadRequest))
	}
	err := AdoptFromURL(s.reg, name, from, s.opt.AdoptDir, s.opt.SessionCfg, nil)
	switch {
	case errors.Is(err, ErrAlreadyRegistered):
		return jsonResponse(http.StatusOK, AdoptResponse{Dataset: name, Status: "exists"})
	case errors.Is(err, snapio.ErrCorrupt):
		return jsonResponse(http.StatusBadGateway, ErrorResponse{Error: err.Error()})
	case err != nil:
		return errResponse(err)
	}
	s.opt.Logf("adopt %q from %s", name, from)
	return jsonResponse(http.StatusOK, AdoptResponse{Dataset: name, Status: "adopted"})
}
