// Request-handling core shared by the HTTP server and the CLI REPL.
//
// Every serving surface — the HTTP handlers in this package and the
// `currents serve` stdin loop — dispatches through the Exec* functions
// below, so the two paths cannot drift: a request means the same thing and
// produces the same domain result whichever transport carried it. The
// transports differ only in rendering (JSON responses here, fixed-width
// tables on the REPL's stdout).
//
// Errors caused by the request itself (unknown policy, empty query, knobs
// out of range) wrap ErrBadRequest so the HTTP layer can answer 400 without
// string-matching.
package server

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sourcecurrents/internal/fusion"
	"sourcecurrents/internal/linkage"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/queryans"
	"sourcecurrents/internal/recommend"
	"sourcecurrents/internal/session"
)

// ErrBadRequest marks errors caused by the request (mapped to HTTP 400).
var ErrBadRequest = errors.New("bad request")

// ObjectRef is the transport form of a query object.
type ObjectRef struct {
	Entity    string `json:"entity"`
	Attribute string `json:"attribute"`
}

// AnswerRequest asks for the value of each query object. The zero value of
// every override field means "use the session's configuration"; non-zero
// fields override per request (the probing policy, the probe cap and the
// early-stop posterior).
type AnswerRequest struct {
	Query      []ObjectRef `json:"query"`
	Policy     string      `json:"policy,omitempty"`
	MaxSources int         `json:"max_sources,omitempty"`
	StopProb   float64     `json:"stop_prob,omitempty"`
	// IncludeSteps adds the full per-probe trace to the response.
	IncludeSteps bool `json:"include_steps,omitempty"`
}

// overrides reports whether the request needs a per-call planner.
func (r AnswerRequest) overrides() bool {
	return r.Policy != "" || r.MaxSources != 0 || r.StopProb != 0
}

// cacheKey renders the request's normalized form: every decoded field that
// can influence the response bytes, and nothing else. The query list is
// length-prefixed verbatim in request order — answers are positional and
// duplicates change the greedy gain sums, so sorting or deduplicating here
// would alias requests with different byte-exact responses.
func (r AnswerRequest) cacheKey() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d:%s|%d|%s|%t",
		len(r.Policy), r.Policy, r.MaxSources,
		strconv.FormatFloat(r.StopProb, 'x', -1, 64), r.IncludeSteps)
	for _, o := range r.Query {
		fmt.Fprintf(&sb, "|%d:%s,%d:%s", len(o.Entity), o.Entity, len(o.Attribute), o.Attribute)
	}
	return sb.String()
}

// ParsePolicy maps the transport names (the Policy.String forms) back to
// probing policies.
func ParsePolicy(name string) (queryans.Policy, error) {
	switch name {
	case "greedy-gain":
		return queryans.GreedyGain, nil
	case "accuracy-coverage":
		return queryans.AccuracyCoverage, nil
	case "by-id":
		return queryans.ByID, nil
	}
	return 0, fmt.Errorf("%w: unknown policy %q (greedy-gain|accuracy-coverage|by-id)", ErrBadRequest, name)
}

// ExecAnswer answers a query against the session, applying any per-request
// overrides. Without overrides it uses the session's precompiled planner —
// the hot path; with overrides it builds the lightweight per-call planner
// over the same cached precompute. The per-probe trace is computed only for
// a request that asks to read it (include_steps); final and probed are the
// same bytes either way.
func ExecAnswer(s *session.Session, req AnswerRequest) (*queryans.Result, error) {
	if len(req.Query) == 0 {
		return nil, fmt.Errorf("%w: empty query", ErrBadRequest)
	}
	query := make([]model.ObjectID, len(req.Query))
	for i, ref := range req.Query {
		if ref.Entity == "" {
			return nil, fmt.Errorf("%w: query[%d] has empty entity", ErrBadRequest, i)
		}
		query[i] = model.Obj(ref.Entity, ref.Attribute)
	}
	if !req.overrides() && !req.IncludeSteps {
		res, err := s.AnswerObjects(query)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return res, nil
	}
	qcfg := s.QueryConfig()
	if req.Policy != "" {
		pol, err := ParsePolicy(req.Policy)
		if err != nil {
			return nil, err
		}
		qcfg.Policy = pol
	}
	if req.MaxSources != 0 {
		qcfg.MaxSources = req.MaxSources
	}
	if req.StopProb != 0 {
		qcfg.StopProb = req.StopProb
	}
	answer := s.AnswerObjectsWith
	if req.IncludeSteps {
		answer = s.TraceObjects
	}
	res, err := answer(query, qcfg)
	if err != nil {
		// Every failure mode here is a bad knob or bad query.
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return res, nil
}

// ExecFuse resolves all conflicts under the session's fusion strategy.
func ExecFuse(s *session.Session) (*fusion.Result, error) {
	return s.Fuse()
}

// RecommendRequest asks for the k most trusted sources. K absent defaults
// to 5 (the REPL's default); an explicit k of 0 validly requests zero
// results. Weights default to recommend.DefaultWeights when absent.
type RecommendRequest struct {
	K       *int            `json:"k,omitempty"`
	Weights *WeightsRequest `json:"weights,omitempty"`
}

// WeightsRequest is the transport form of trust weights.
type WeightsRequest struct {
	Accuracy     float64 `json:"accuracy"`
	Coverage     float64 `json:"coverage"`
	Freshness    float64 `json:"freshness"`
	Independence float64 `json:"independence"`
}

// ExecRecommend ranks the session's cached trust profiles.
func ExecRecommend(s *session.Session, req RecommendRequest) ([]recommend.Profile, error) {
	k := 5
	if req.K != nil {
		k = *req.K
	}
	w := recommend.DefaultWeights()
	if req.Weights != nil {
		w = recommend.Weights{
			Accuracy:     req.Weights.Accuracy,
			Coverage:     req.Weights.Coverage,
			Freshness:    req.Weights.Freshness,
			Independence: req.Weights.Independence,
		}
	}
	top, err := s.RecommendSources(w, k)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return top, nil
}

// ClaimJSON is the transport form of one appended claim. A zero Prob means
// "probability 1" (the categorical-source default, matching model.NewClaim);
// Time absent means the claim is timeless.
type ClaimJSON struct {
	Source    string  `json:"source"`
	Entity    string  `json:"entity"`
	Attribute string  `json:"attribute"`
	Value     string  `json:"value"`
	Time      *int64  `json:"time,omitempty"`
	Prob      float64 `json:"prob,omitempty"`
}

// AppendRequest carries one append batch for /v1/{dataset}/append.
type AppendRequest struct {
	Claims []ClaimJSON `json:"claims"`
}

// batch validates the request and converts it to model claims.
func (r AppendRequest) batch() ([]model.Claim, error) {
	if len(r.Claims) == 0 {
		return nil, fmt.Errorf("%w: empty append batch", ErrBadRequest)
	}
	batch := make([]model.Claim, len(r.Claims))
	for i, cj := range r.Claims {
		c := model.Claim{
			Source: model.SourceID(cj.Source),
			Object: model.Obj(cj.Entity, cj.Attribute),
			Value:  cj.Value,
			Prob:   cj.Prob,
		}
		if c.Prob == 0 {
			c.Prob = 1
		}
		if cj.Time != nil {
			c.Time = model.Time(*cj.Time)
			c.HasTime = true
		}
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("%w: claims[%d]: %v", ErrBadRequest, i, err)
		}
		batch[i] = c
	}
	return batch, nil
}

// AppendResponse is the /append payload: the dataset's new generation.
type AppendResponse struct {
	Dataset  string `json:"dataset"`
	Epoch    uint64 `json:"epoch"`
	Appended int    `json:"appended"`
	Claims   int    `json:"claims"`
	Sources  int    `json:"sources"`
	Objects  int    `json:"objects"`
}

// BuildAppendResponse renders the post-append serving state.
func BuildAppendResponse(name string, epoch uint64, appended int, s *session.Session) AppendResponse {
	d := s.Dataset()
	return AppendResponse{
		Dataset:  name,
		Epoch:    epoch,
		Appended: appended,
		Claims:   d.Len(),
		Sources:  len(d.Sources()),
		Objects:  len(d.Objects()),
	}
}

// AccuracyEntry is one source's discovered accuracy.
type AccuracyEntry struct {
	Source   model.SourceID
	Accuracy float64
}

// ExecAccuracy returns the discovered per-source accuracies in source
// order. It reads the accuracy map alone, so a mapped session answers
// without materializing.
func ExecAccuracy(s *session.Session) []AccuracyEntry {
	acc := s.Accuracy()
	out := make([]AccuracyEntry, 0, len(acc))
	for src, a := range acc {
		out = append(out, AccuracyEntry{Source: src, Accuracy: a})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}

// LinkRequest parameterizes record linkage over the session's dataset.
// Zero values take the linkage defaults (author-list similarity).
type LinkRequest struct {
	MatchThreshold float64 `json:"match_threshold,omitempty"`
	MinAltSupport  int     `json:"min_alt_support,omitempty"`
}

// ExecLink clusters alternative value representations per object.
func ExecLink(s *session.Session, req LinkRequest) (*linkage.Result, error) {
	cfg := linkage.DefaultConfig()
	if req.MatchThreshold != 0 {
		cfg.MatchThreshold = req.MatchThreshold
	}
	if req.MinAltSupport != 0 {
		cfg.MinAltSupport = req.MinAltSupport
	}
	res, err := s.Link(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return res, nil
}

// --- Response shapes -------------------------------------------------------
//
// The Build* helpers are the single source of truth for how domain results
// render as JSON; the golden equivalence tests marshal them directly from
// session results and require the HTTP bytes to match exactly.

// AnswerJSON is one object's current answer.
type AnswerJSON struct {
	Entity    string  `json:"entity"`
	Attribute string  `json:"attribute"`
	Value     string  `json:"value,omitempty"`
	Prob      float64 `json:"prob"`
}

// StepJSON is one probe of the planner trace.
type StepJSON struct {
	Source  string       `json:"source"`
	Gain    float64      `json:"gain"`
	Answers []AnswerJSON `json:"answers"`
}

// AnswerResponse is the /answer payload.
type AnswerResponse struct {
	Probed []string     `json:"probed"`
	Final  []AnswerJSON `json:"final"`
	Steps  []StepJSON   `json:"steps,omitempty"`
}

func answersJSON(answers []queryans.Answer) []AnswerJSON {
	out := make([]AnswerJSON, len(answers))
	for i, a := range answers {
		out[i] = AnswerJSON{
			Entity:    a.Object.Entity,
			Attribute: a.Object.Attribute,
			Value:     a.Value,
			Prob:      a.Prob,
		}
	}
	return out
}

// BuildAnswerResponse renders a planner trace.
func BuildAnswerResponse(res *queryans.Result, includeSteps bool) AnswerResponse {
	probed := make([]string, len(res.Probed))
	for i, s := range res.Probed {
		probed[i] = string(s)
	}
	resp := AnswerResponse{Probed: probed, Final: answersJSON(res.Final)}
	if includeSteps {
		resp.Steps = make([]StepJSON, len(res.Steps))
		for i, st := range res.Steps {
			resp.Steps[i] = StepJSON{
				Source:  string(st.Source),
				Gain:    st.Gain,
				Answers: answersJSON(st.Answers),
			}
		}
	}
	return resp
}

// FusedObjectJSON is one object's fused value.
type FusedObjectJSON struct {
	Entity    string  `json:"entity"`
	Attribute string  `json:"attribute"`
	Value     string  `json:"value,omitempty"`
	Prob      float64 `json:"prob"`
}

// FuseResponse is the /fuse payload: every object in canonical order.
type FuseResponse struct {
	Strategy string            `json:"strategy"`
	Objects  []FusedObjectJSON `json:"objects"`
}

// BuildFuseResponse renders a fusion result over the dataset's canonical
// object order.
func BuildFuseResponse(objects []model.ObjectID, res *fusion.Result) FuseResponse {
	out := FuseResponse{
		Strategy: res.Strategy.String(),
		Objects:  make([]FusedObjectJSON, len(objects)),
	}
	for i, o := range objects {
		v := res.Chosen[o]
		out.Objects[i] = FusedObjectJSON{
			Entity:    o.Entity,
			Attribute: o.Attribute,
			Value:     v,
			Prob:      res.Relation.Tuples[o].Prob(v),
		}
	}
	return out
}

// ProfileJSON is one recommended source.
type ProfileJSON struct {
	Source       string  `json:"source"`
	Trust        float64 `json:"trust"`
	Accuracy     float64 `json:"accuracy"`
	Coverage     float64 `json:"coverage"`
	Freshness    float64 `json:"freshness"`
	Independence float64 `json:"independence"`
}

// RecommendResponse is the /recommend payload.
type RecommendResponse struct {
	Sources []ProfileJSON `json:"sources"`
}

// BuildRecommendResponse renders ranked trust profiles.
func BuildRecommendResponse(top []recommend.Profile) RecommendResponse {
	out := RecommendResponse{Sources: make([]ProfileJSON, len(top))}
	for i, p := range top {
		out.Sources[i] = ProfileJSON{
			Source:       string(p.Source),
			Trust:        p.Trust,
			Accuracy:     p.Accuracy,
			Coverage:     p.Coverage,
			Freshness:    p.Freshness,
			Independence: p.Independence,
		}
	}
	return out
}

// AccuracyJSON is one source's accuracy.
type AccuracyJSON struct {
	Source   string  `json:"source"`
	Accuracy float64 `json:"accuracy"`
}

// AccuracyResponse is the /accuracy payload.
type AccuracyResponse struct {
	Sources []AccuracyJSON `json:"sources"`
}

// BuildAccuracyResponse renders the per-source accuracies.
func BuildAccuracyResponse(entries []AccuracyEntry) AccuracyResponse {
	out := AccuracyResponse{Sources: make([]AccuracyJSON, len(entries))}
	for i, e := range entries {
		out.Sources[i] = AccuracyJSON{Source: string(e.Source), Accuracy: e.Accuracy}
	}
	return out
}

// ClusterJSON is one linkage cluster.
type ClusterJSON struct {
	Entity          string   `json:"entity"`
	Attribute       string   `json:"attribute"`
	Canonical       string   `json:"canonical"`
	Support         int      `json:"support"`
	Variants        []string `json:"variants"`
	WrongValueForms []string `json:"wrong_value_forms,omitempty"`
}

// LinkResponse is the /link payload.
type LinkResponse struct {
	Clusters []ClusterJSON `json:"clusters"`
}

// BuildLinkResponse renders linkage clusters.
func BuildLinkResponse(res *linkage.Result) LinkResponse {
	out := LinkResponse{Clusters: make([]ClusterJSON, len(res.Clusters))}
	for i, cl := range res.Clusters {
		variants := make([]string, len(cl.Variants))
		for j, v := range cl.Variants {
			variants[j] = v.Value
		}
		out.Clusters[i] = ClusterJSON{
			Entity:          cl.Object.Entity,
			Attribute:       cl.Object.Attribute,
			Canonical:       cl.Canonical,
			Support:         cl.Support,
			Variants:        variants,
			WrongValueForms: cl.WrongValueForms,
		}
	}
	return out
}

// HealthResponse is the /healthz payload. Status is liveness ("ok" as long
// as the process serves); Ready distinguishes loading from ready — true
// only once every registered world has been proven loadable, checked
// without triggering any load (see /readyz for the active probe).
type HealthResponse struct {
	Status   string   `json:"status"`
	Ready    bool     `json:"ready"`
	Datasets []string `json:"datasets"`
}

// BuildHealthResponse renders the registry's dataset names, sorted.
func BuildHealthResponse(names []string, ready bool) HealthResponse {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	return HealthResponse{Status: "ok", Ready: ready, Datasets: sorted}
}

// ReadyFailure is one dataset that failed readiness verification.
type ReadyFailure struct {
	Dataset string `json:"dataset"`
	Error   string `json:"error"`
}

// ReadyResponse is the /readyz payload: 200/"ready" only when every
// registered world verifiably opens. Datasets is the shard's inventory —
// the router's prober reads it to know what lives where — and Epochs
// reports each known dataset's append-log epoch, the signal the router's
// anti-entropy repair loop compares across a placement to spot lagging
// replicas.
type ReadyResponse struct {
	Status   string            `json:"status"`
	Datasets []string          `json:"datasets"`
	Epochs   map[string]uint64 `json:"epochs,omitempty"`
	Failures []ReadyFailure    `json:"failures,omitempty"`
}
