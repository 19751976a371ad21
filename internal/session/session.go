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
	"sourcecurrents/internal/fusion"
	"sourcecurrents/internal/linkage"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/queryans"
	"sourcecurrents/internal/recommend"
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
// There is one kind of session: a Dataset, its depen.State and the planner
// over them, however it came about — New and Append solve the state, AsOf
// re-solves it, AppendDelta takes it from the primary's frame, and a
// snapshot's open (LoadSnapshot*) builds the dataset from the file and
// assembles the state from its sections. The state is the one representation
// of the solve: every other is derived from it. A session is an ordinary heap
// object: nothing is released by hand, so a session, and anything an answer
// took from it, stays valid for as long as it is referenced.
//
// Every serving call reads the state and what is derived from it: no
// session builds or keeps a depen.Result view (Dependence builds one per call
// for library callers). The trust profiles (Profiles, Recommend*) and the
// by-name accuracy map (Accuracy) are built lazily, each once, by the first
// call that needs them.
type Session struct {
	d   *dataset.Dataset
	cfg Config
	// st is the dense solve state — solved by New, Append or AsOf, taken from
	// a delta frame, or assembled from a snapshot's sections, whose vectors
	// and pair records it then aliases. Read-only.
	st *depen.State
	// accMap is acc keyed by source, built by the first Accuracy().
	accOnce sync.Once
	accMap  map[model.SourceID]float64
	// acc is the dense per-source accuracy vector and depTab the flat
	// source×source total dependence posterior, both in compiled source
	// order. They alias st's vectors.
	acc     []float64
	depTab  []float64
	planner *queryans.Planner

	profilesOnce sync.Once
	profiles     []recommend.Profile

	// hist is the epoch history spine shared along the append chain;
	// created is when this session became the serving current (see
	// history.go for AsOf, History, and the retention contract).
	hist    *history
	created time.Time
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
// vectors the serving tables alias — the shared tail of New, Append, AsOf,
// AppendDelta and a snapshot's open. cfg must already be validated, and d
// frozen and non-empty.
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
	d2, err := s.d.Append(batch)
	if err != nil {
		return nil, err
	}
	st2, err := depen.Solve(d2, s.st, s.cfg.Depen)
	if err != nil {
		return nil, err
	}
	return s.successor(d2, st2)
}

// successor assembles the session of d2, the successor of s's dataset, over
// its state st2, sharing s's history spine with s retained behind it — the
// tail of Append and AppendDelta.
func (s *Session) successor(d2 *dataset.Dataset, st2 *depen.State) (*Session, error) {
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

// Dataset returns the served dataset.
func (s *Session) Dataset() *dataset.Dataset { return s.d }

// Dependence returns the discovery result by name, a library convenience: each
// call builds a new view of the session's state — maps and a sort of every
// analysed pair — which the session does not keep and no serving call reads.
func (s *Session) Dependence() *depen.Result { return s.st.Result(s.cfg.Depen) }

// NumDependences returns how many analysed pairs reach the dependence
// threshold — len(Dependence().Dependences) — counted off the state's pair
// records without building the view.
func (s *Session) NumDependences() int {
	n := 0
	s.st.EachPair(func(_, _ int, ab, ba float64) {
		if ab+ba >= s.cfg.Depen.DepThreshold {
			n++
		}
	})
	return n
}

// Accuracy returns the per-source accuracies, as Dependence().Truth.Accuracy:
// the dense vector keyed by source, built once per epoch on the first call.
// Callers must treat the map as read-only.
func (s *Session) Accuracy() map[model.SourceID]float64 {
	s.accOnce.Do(func() {
		ids := s.d.Compiled().SourceIDs()
		s.accMap = make(map[model.SourceID]float64, len(ids))
		for i, id := range ids {
			s.accMap[id] = s.acc[i]
		}
	})
	return s.accMap
}

// DatasetEpoch returns the served dataset's append epoch — servers key
// caches on it.
func (s *Session) DatasetEpoch() int { return s.d.Epoch() }

// Close does nothing and returns nil: a session holds no resource but
// memory, which the garbage collector reclaims. It remains for callers
// written when a loaded session held a file mapping.
func (s *Session) Close() error { return nil }

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

// Fuse resolves all conflicts under the configured fusion strategy; the
// result is built per call and owned by the caller. The default
// DependenceAware strategy resolves from the session's state
// (fusion.FuseWith), so its result carries no Truth or Depen: Dependence
// builds that view on request. Other strategies run their (cheap) solvers
// per call and carry them as fusion.Fuse does.
func (s *Session) Fuse() (*fusion.Result, error) {
	if s.cfg.Fusion.Strategy == fusion.DependenceAware {
		// The Known labels are the ones the state was solved under.
		cfg := s.cfg.Fusion
		cfg.Depen = s.cfg.Depen
		return fusion.FuseWith(s.d, cfg, s.st)
	}
	return fusion.Fuse(s.d, s.cfg.Fusion)
}

// Link clusters alternative value representations per object and rewrites
// the dataset with canonical values. Linkage is configured per call; the
// session's cached state is not consulted (linkage precedes discovery in
// the §4 pipeline), but serving it here keeps the one-stop contract.
func (s *Session) Link(cfg linkage.Config) (*linkage.Result, error) {
	return linkage.Link(s.d, cfg)
}

// Profiles returns the cached trust profiles, building them on first use
// from the session's state (and configured temporal reports). Callers must
// treat the slice as read-only.
func (s *Session) Profiles() []recommend.Profile {
	s.profilesOnce.Do(func() {
		s.profiles = recommend.BuildProfiles(s.d, s.st, s.cfg.Reports)
	})
	return s.profiles
}

// RecommendSources returns the k most trusted sources under w, ranking the
// cached profiles.
func (s *Session) RecommendSources(w recommend.Weights, k int) ([]recommend.Profile, error) {
	return recommend.Top(s.Profiles(), w, k)
}
