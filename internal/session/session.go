// Package session implements the long-lived query-serving layer over a
// frozen dataset.
//
// The §4 applications all sit on top of the same expensive precompute: run
// copy-aware truth discovery once to obtain per-source accuracies and the
// pairwise dependence table. One-shot entry points (queryans.AnswerObjects,
// fusion.Fuse, recommend.BuildProfiles) re-derive that state on every call,
// which is the wrong shape for a server answering many queries against one
// corpus. A Session amortizes the precompute across the query stream — the
// series-of-queries argument: pay the index/derivation cost once, then
// answer each query against cached state.
//
// Construction eagerly compiles the dataset's columnar index and runs the
// depen solve a single time. Everything the serving calls touch afterwards
// — the dense accuracy vector, the flat source×source dependence table, the
// compiled query planner, the trust profiles — is immutable, so a single
// Session serves AnswerObjects, Fuse, Link and RecommendSources calls from
// any number of concurrent goroutines, each call reading shared state and
// writing only its own result. Results are bit-identical to the one-shot
// entry points fed the same discovery result, which the equivalence tests
// enforce.
package session

import (
	"errors"
	"sync"
	"time"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/depen"
	"sourcecurrents/internal/dissim"
	"sourcecurrents/internal/fusion"
	"sourcecurrents/internal/linkage"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/queryans"
	"sourcecurrents/internal/recommend"
	"sourcecurrents/internal/snapio"
	"sourcecurrents/internal/temporal"
)

// Config parameterizes a Session. Start from DefaultConfig.
type Config struct {
	// Depen configures the one-time precompute (copy-aware truth discovery
	// and dependence detection).
	Depen depen.Config
	// Query is the template for AnswerObjects calls. Its Accuracy and
	// Dependence fields are ignored: the session substitutes its cached
	// accuracies and dependence table.
	Query queryans.Config
	// Fusion is the template for Fuse calls. With the DependenceAware
	// strategy (the default) its solver configs are ignored — the cached
	// precompute is reused; other strategies run their (cheap) solvers per
	// call.
	Fusion fusion.Config
	// Reports optionally supplies temporal quality reports consumed by the
	// trust profiles (nil for neutral freshness).
	Reports map[model.SourceID]*temporal.SourceReport
	// RetainEpochs bounds the epoch history spine: how many historical
	// epochs stay addressable through AsOf behind the current one as the
	// session advances through Append. 0 (the default) retains none —
	// append remains pure swap-and-discard; N keeps the last N; negative
	// retains every epoch. Retention shapes only serving-time navigation,
	// never the precompute, so it is not part of the snapshot fingerprint
	// and may differ freely between a snapshot writer and its loader.
	RetainEpochs int
}

// DefaultConfig returns the standard serving parameters.
func DefaultConfig() Config {
	return Config{
		Depen:  depen.DefaultConfig(),
		Query:  queryans.DefaultConfig(),
		Fusion: fusion.DefaultConfig(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Depen.Validate(); err != nil {
		return err
	}
	if err := c.Query.Validate(); err != nil {
		return err
	}
	return c.Fusion.Validate()
}

// Session is the reusable serving state: built once, read-only afterwards,
// safe for concurrent calls.
//
// Two backends exist. An eager session (New, Append, AsOf) holds a
// materialized Dataset and its depen.State from the start. A mapped session
// (LoadSnapshot*) serves AnswerObjects and Accuracy straight from the
// snapshot's compiled tables. Either way the state is the one representation
// of the solve: every other is derived from it.
//
// AnswerObjects, Accuracy, Append and AsOf read only dense state, so three
// things are built lazily, each once, by the first call that needs it: a
// mapped session's dataset (materialized from the snapshot's claim log, with
// the state moved onto the heap over it, never aliasing the mapping; Fuse,
// Link, Profiles, Append, Dataset, Dependence, PairProbs), the trust profiles
// (Profiles, Recommend*), and the depen.Result view of the state — maps and
// 100k-odd named, sorted pairs that no append or answer reads (Dependence,
// Fuse, Profiles, WriteSnapshot).
type Session struct {
	d   *dataset.Dataset
	cfg Config
	// st is the dense solve state — solved by New, Append or AsOf, or
	// assembled from a snapshot's sections — and dep the Result view of it,
	// built by result(). A mapped session's st aliases the mapping until
	// materialize moves it onto the heap, and is written only there after
	// the load: read it after materialize.
	st      *depen.State
	depOnce sync.Once
	dep     *depen.Result
	// accMap is acc keyed by source, built by the first Accuracy() — without
	// the view, and for a mapped session without materializing.
	accOnce sync.Once
	accMap  map[model.SourceID]float64
	// acc is the dense per-source accuracy vector and depTab the flat
	// source×source total dependence posterior, both in compiled source
	// order. They alias st's vectors (acc, for mapped sessions, the mapping).
	acc     []float64
	depTab  []float64
	planner *queryans.Planner

	// Mapped-backend state; nil for eager sessions.
	mapped  *snapio.Mapped
	md      *dataset.Mapped
	matOnce sync.Once
	matErr  error

	profilesOnce sync.Once
	profiles     []recommend.Profile

	// hist is the epoch history spine shared along the append chain;
	// created is when this session became the serving current (see
	// history.go for AsOf, History, and the retention contract).
	hist    *history
	created time.Time
}

// materialize builds a mapped session's dataset from the snapshot's claim
// log and moves its state over it, on first use. It is a no-op for eager
// sessions. Everything it builds is copied off the mapping, so materialized
// state survives Close.
func (s *Session) materialize() error {
	if s.mapped == nil {
		return nil
	}
	s.matOnce.Do(func() { s.matErr = s.materializeMapped() })
	return s.matErr
}

// New builds a Session from a frozen dataset: compiles the columnar index,
// runs truth discovery and dependence detection once, and precompiles the
// query planner against the cached state.
func New(d *dataset.Dataset, cfg Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if d == nil || !d.Frozen() {
		return nil, errors.New("session: dataset must be frozen")
	}
	if d.Len() == 0 {
		return nil, errors.New("session: empty dataset")
	}
	st, err := depen.Solve(d, nil, cfg.Depen)
	if err != nil {
		return nil, err
	}
	return newSession(d, cfg, st)
}

// newSession assembles the serving state over d's dense state st, whose
// vectors the serving tables alias — the shared tail of New, Append and
// AsOf. cfg must already be validated, and d frozen and non-empty.
func newSession(d *dataset.Dataset, cfg Config, st *depen.State) (*Session, error) {
	s := &Session{
		d:       d,
		cfg:     cfg,
		st:      st,
		acc:     st.Accuracy(),
		depTab:  st.Totals(),
		hist:    newHistory(cfg.RetainEpochs),
		created: time.Now(),
	}
	qcfg := cfg.Query
	qcfg.Accuracy = nil
	qcfg.Dependence = nil
	planner, err := queryans.NewPlannerDense(d, qcfg, s.acc, s.depTab)
	if err != nil {
		return nil, err
	}
	s.planner = planner
	return s, nil
}

// result returns the discovery result, building the view of the state on
// first use. The session must be materialized.
func (s *Session) result() *depen.Result {
	s.depOnce.Do(func() { s.dep = s.st.Result(s.cfg.Depen) })
	return s.dep
}

// Append advances the session across one appended claim batch: it builds
// the successor dataset, runs the bounded delta recompute (depen.Solve)
// from this session's dense state to the successor's, and assembles a new
// serving Session over it — no map or sorted pair list is built on the way.
// The receiver is not modified and keeps serving — callers swap atomically
// once the new session is ready. The returned session is bit-identical to
// New over the successor dataset, because a from-scratch build replays the
// same log with the same refinement passes (the equivalence the append
// suites pin).
//
// The successor shares the receiver's epoch history spine: the receiver is
// retained behind it (up to Config.RetainEpochs epochs deep) and stays
// reachable through Session.AsOf, so as-of queries keep serving retired
// epochs after the swap.
func (s *Session) Append(batch []model.Claim) (*Session, error) {
	if err := s.materialize(); err != nil {
		return nil, err
	}
	d2, err := s.d.Append(batch)
	if err != nil {
		return nil, err
	}
	st2, err := depen.Solve(d2, s.st, s.cfg.Depen)
	if err != nil {
		return nil, err
	}
	next, err := newSession(d2, s.cfg, st2)
	if err != nil {
		return nil, err
	}
	if s.hist != nil {
		next.hist = s.hist
		s.hist.retainPredecessor(s, next.DatasetEpoch())
	}
	return next, nil
}

// Dataset returns the served dataset, materializing it first for a mapped
// session. It returns nil if materialization fails (a claim log that does
// not index to its tables); error-returning entry points surface the cause.
func (s *Session) Dataset() *dataset.Dataset {
	if err := s.materialize(); err != nil {
		return nil
	}
	return s.d
}

// Dependence returns the discovery result. The first call per epoch builds
// the view of the session's state — the sort of every analysed pair an append
// no longer pays — after a mapped session has materialized (nil on
// failure). Later calls return the same Result; callers must treat it as
// read-only.
func (s *Session) Dependence() *depen.Result {
	if err := s.materialize(); err != nil {
		return nil
	}
	return s.result()
}

// Accuracy returns the per-source accuracies, as Dependence().Truth.Accuracy:
// the dense vector keyed by source, built once per epoch on the first call —
// without the Result view, and for a mapped session without materializing
// (the keys are copied off the mapping). Callers must treat the map
// as read-only.
func (s *Session) Accuracy() map[model.SourceID]float64 {
	s.accOnce.Do(func() {
		ids := s.compiledView().SourceIDs()
		s.accMap = make(map[model.SourceID]float64, len(ids))
		for i, id := range ids {
			s.accMap[id] = s.acc[i]
		}
	})
	return s.accMap
}

// compiledView returns the compiled index the session serves from — the
// mapped tables for a mapped session, the dataset's own compilation
// otherwise — without forcing materialization.
func (s *Session) compiledView() *dataset.Compiled {
	if s.mapped != nil {
		return s.md.Compiled()
	}
	return s.d.Compiled()
}

// DatasetEpoch returns the served dataset's append epoch without forcing a
// mapped session to materialize — servers key caches on it.
func (s *Session) DatasetEpoch() int {
	if s.mapped != nil {
		return s.md.Epoch()
	}
	return s.d.Epoch()
}

// MappedBytes returns the size of the mapped snapshot backing this session,
// or 0 for an eager session — the /metrics mapped-bytes gauge.
func (s *Session) MappedBytes() int64 {
	if s.mapped == nil {
		return 0
	}
	return s.mapped.Size()
}

// MappedSnapshot returns the raw snapshot container backing this session,
// or nil for an eager (heap-built) session. The bytes alias the mapping —
// valid only while the caller's registry pin holds — so snapshot streaming
// copies them before the pin releases.
func (s *Session) MappedSnapshot() []byte {
	if s.mapped == nil {
		return nil
	}
	return s.mapped.Bytes()
}

// Close releases a mapped session's snapshot mapping; eager sessions are
// untouched (nil error). After Close no serving call may run: the planner
// and any strings previously returned by answers alias the mapping. Callers
// (the server registry) guarantee quiescence via refcounting before
// closing.
func (s *Session) Close() error {
	if s.mapped == nil {
		return nil
	}
	return s.mapped.Close()
}

// QueryConfig returns the session's query-planner template — the base
// configuration per-request overrides start from (see AnswerObjectsWith).
func (s *Session) QueryConfig() queryans.Config { return s.cfg.Query }

// AnswerObjects answers an online query over the cached accuracies,
// dependence table and compiled claim lists — no per-call re-derivation. It
// is the serving call: the Result carries where the probing ended (Final and
// Probed, bit-identical to the trace's) and no Steps, so it does not pay for
// rescoring every object after every probe. TraceObjects returns the trace.
func (s *Session) AnswerObjects(query []model.ObjectID) (*queryans.Result, error) {
	return s.planner.Final(query)
}

// AnswerObjectsWith is AnswerObjects under a per-call planner configuration
// (policy, probe cap, early stopping) while still reading the session's
// cached accuracies and dependence table — qcfg's Accuracy and Dependence
// fields are ignored. The per-call planner is derived from the session's
// precompiled one, sharing its dense state and its scratch pool, so the
// override path stays on the zero-allocation serve shape.
func (s *Session) AnswerObjectsWith(query []model.ObjectID, qcfg queryans.Config) (*queryans.Result, error) {
	p, err := s.derive(qcfg)
	if err != nil {
		return nil, err
	}
	return p.Final(query)
}

// TraceObjects answers like AnswerObjectsWith and records the answers after
// every probe (Result.Steps) — what include_steps and the quality-vs-probes
// curve (EX8) read. The trace is bit-identical to a one-shot
// queryans.AnswerObjects call configured with this session's discovery
// result; it costs a rescoring per probe, which on a many-source world is
// most of the call.
func (s *Session) TraceObjects(query []model.ObjectID, qcfg queryans.Config) (*queryans.Result, error) {
	p, err := s.derive(qcfg)
	if err != nil {
		return nil, err
	}
	return p.Answer(query)
}

// derive returns the per-call planner for qcfg over the session's dense state.
func (s *Session) derive(qcfg queryans.Config) (*queryans.Planner, error) {
	qcfg.Accuracy = nil
	qcfg.Dependence = nil
	return s.planner.Derive(qcfg)
}

// Fuse resolves all conflicts under the configured fusion strategy. The
// default DependenceAware strategy reuses the cached precompute. The
// Chosen map and Relation are rebuilt per call and owned by the caller,
// but the embedded Truth/Depen fields alias the session's shared cache and
// must be treated as read-only.
func (s *Session) Fuse() (*fusion.Result, error) {
	if err := s.materialize(); err != nil {
		return nil, err
	}
	if s.cfg.Fusion.Strategy == fusion.DependenceAware {
		return fusion.FuseWith(s.d, s.cfg.Fusion, s.result())
	}
	return fusion.Fuse(s.d, s.cfg.Fusion)
}

// Link clusters alternative value representations per object and rewrites
// the dataset with canonical values. Linkage is configured per call; the
// session's cached state is not consulted (linkage precedes discovery in
// the §4 pipeline), but serving it here keeps the one-stop contract.
func (s *Session) Link(cfg linkage.Config) (*linkage.Result, error) {
	if err := s.materialize(); err != nil {
		return nil, err
	}
	return linkage.Link(s.d, cfg)
}

// Profiles returns the cached trust profiles, building them on first use
// from the session's discovery result (and configured temporal reports).
// Callers must treat the slice as read-only.
func (s *Session) Profiles() []recommend.Profile {
	if err := s.materialize(); err != nil {
		return nil
	}
	s.profilesOnce.Do(func() {
		s.profiles = recommend.BuildProfiles(s.d, s.result(), s.cfg.Reports)
	})
	return s.profiles
}

// RecommendSources returns the k most trusted sources under w, ranking the
// cached profiles.
func (s *Session) RecommendSources(w recommend.Weights, k int) ([]recommend.Profile, error) {
	return recommend.Top(s.Profiles(), w, k)
}

// RecommendDiverse returns k trusted sources plus dissenting voices that
// dissimilarity-depend on them.
func (s *Session) RecommendDiverse(w recommend.Weights, diss *dissim.Result,
	k, extraDissent int) ([]recommend.DiversePick, error) {
	return recommend.TopDiverse(s.Profiles(), w, diss, k, extraDissent)
}
