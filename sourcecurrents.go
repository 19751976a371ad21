// Package sourcecurrents discovers and applies dependence between data
// sources, reproducing "Sailing the Information Ocean with Awareness of
// Currents: Discovery and Application of Source Dependence" (Berti-Equille,
// Das Sarma, Dong, Marian, Srivastava — CIDR 2009).
//
// The package is a facade over the internal implementation:
//
//   - Claims and datasets: Claim, Dataset, NewDataset, ReadClaimsCSV.
//   - Snapshot copy detection and copy-aware truth discovery:
//     DetectDependence (§3.2 "Snapshot Dependence").
//   - Temporal dependence over update traces: DetectTemporalDependence
//     (§3.2 "Temporal Dependence").
//   - Dissimilarity-dependence on opinion data: DetectDissimilarity (§2.2,
//     Example 2.2).
//   - Applications (§4): Fuse (data fusion), Link (record linkage),
//     AnswerQuery (online query answering), RecommendSources.
//   - Serving: Session (NewSession) — the long-lived query-serving layer
//     that runs the expensive truth + dependence precompute once and then
//     answers unlimited AnswerObjects / Fuse / Link / RecommendSources
//     calls against cached state, safely from concurrent goroutines.
//
// There is no worker-count option: the loops measured faster on two cores
// than on one (copy detection's pair and truth steps, winnowing, temporal
// pairs and windows) fan out over runtime.GOMAXPROCS(0) workers, everything
// else runs on the calling goroutine, and results are bit-identical at every
// count — set GOMAXPROCS to bound a process.
//
// Quickstart:
//
//	ds := sourcecurrents.NewDataset()
//	_ = ds.Add(sourcecurrents.NewClaim("S1", sourcecurrents.Obj("Dong", "affiliation"), "AT&T"))
//	// ... add more claims ...
//	ds.Freeze()
//	res, err := sourcecurrents.DetectDependence(ds, sourcecurrents.DefaultDependenceConfig())
//
// See examples/ for runnable programs and EXPERIMENTS.md for the
// paper-reproduction harness.
package sourcecurrents

import (
	"io"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/depen"
	"sourcecurrents/internal/dissim"
	"sourcecurrents/internal/fusion"
	"sourcecurrents/internal/linkage"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/queryans"
	"sourcecurrents/internal/recommend"
	"sourcecurrents/internal/session"
	"sourcecurrents/internal/temporal"
	"sourcecurrents/internal/truth"
)

// Core model types.
type (
	// SourceID identifies a data source.
	SourceID = model.SourceID
	// ObjectID identifies a data item (entity, attribute).
	ObjectID = model.ObjectID
	// Time is a discrete timestamp.
	Time = model.Time
	// Claim is the paper's 4-tuple (source, object, value, time, prob).
	Claim = model.Claim
	// SourcePair is an unordered pair of sources.
	SourcePair = model.SourcePair
	// World is a ground-truth assignment used by generators and evaluation.
	World = model.World
	// Truth is one object's (possibly evolving) true value.
	Truth = model.Truth
	// Dataset is the indexed claim store all solvers consume.
	Dataset = dataset.Dataset
)

// Obj constructs an ObjectID.
func Obj(entity, attribute string) ObjectID { return model.Obj(entity, attribute) }

// NewClaim builds a snapshot claim with probability 1.
func NewClaim(source SourceID, object ObjectID, value string) Claim {
	return model.NewClaim(source, object, value)
}

// NewTemporalClaim builds a timestamped claim with probability 1.
func NewTemporalClaim(source SourceID, object ObjectID, value string, t Time) Claim {
	return model.NewTemporalClaim(source, object, value, t)
}

// NewSourcePair returns the normalized unordered pair.
func NewSourcePair(a, b SourceID) SourcePair { return model.NewSourcePair(a, b) }

// NewDataset returns an empty dataset; Add claims, then Freeze before
// passing it to any solver.
func NewDataset() *Dataset { return dataset.New() }

// DatasetFromClaims builds and freezes a dataset in one call.
func DatasetFromClaims(claims []Claim) (*Dataset, error) {
	return dataset.FromClaims(claims)
}

// ReadClaimsCSV parses claims from CSV
// (source,entity,attribute,value[,time[,prob]]).
func ReadClaimsCSV(r io.Reader) ([]Claim, error) { return dataset.ReadCSV(r) }

// WriteClaimsCSV writes claims as CSV with a header row.
func WriteClaimsCSV(w io.Writer, claims []Claim) error {
	return dataset.WriteCSV(w, claims)
}

// Truth discovery.
type (
	// TruthConfig parameterizes iterative truth discovery.
	TruthConfig = truth.Config
	// TruthResult carries per-object value posteriors, chosen values and
	// source accuracies.
	TruthResult = truth.Result
)

// DefaultTruthConfig returns the standard solver parameters.
func DefaultTruthConfig() TruthConfig { return truth.DefaultConfig() }

// VoteTruth is naive majority voting (the Example 2.1 strawman).
func VoteTruth(d *Dataset) *TruthResult { return truth.Vote(d) }

// DiscoverTruth runs accuracy-weighted iterative truth discovery (no
// dependence modelling).
func DiscoverTruth(d *Dataset, cfg TruthConfig) (*TruthResult, error) {
	return truth.Accu(d, cfg)
}

// Snapshot dependence.
type (
	// DependenceConfig parameterizes copy detection.
	DependenceConfig = depen.Config
	// DependenceResult carries pairwise posteriors plus the copy-aware
	// truth result.
	DependenceResult = depen.Result
	// Dependence is one pair's verdict.
	Dependence = depen.Dependence
)

// DefaultDependenceConfig returns the standard detector parameters.
func DefaultDependenceConfig() DependenceConfig { return depen.DefaultConfig() }

// DetectDependence runs the full iterative loop: truth discovery, accuracy
// estimation and Bayesian pairwise copy detection to a fixpoint.
func DetectDependence(d *Dataset, cfg DependenceConfig) (*DependenceResult, error) {
	return depen.Detect(d, cfg)
}

// Temporal dependence.
type (
	// TemporalConfig parameterizes update-trace dependence detection.
	TemporalConfig = temporal.Config
	// TemporalResult carries the pairwise verdicts.
	TemporalResult = temporal.Result
	// SourceReport is a CEF quality report (coverage/exactness/freshness).
	SourceReport = temporal.SourceReport
	// ValueClass classifies a claim against an object's history.
	ValueClass = temporal.ValueClass
)

// Value classification constants.
const (
	ClassCurrent  = temporal.ClassCurrent
	ClassOutdated = temporal.ClassOutdated
	ClassEarly    = temporal.ClassEarly
	ClassFalse    = temporal.ClassFalse
)

// DefaultTemporalConfig returns the standard temporal parameters.
func DefaultTemporalConfig() TemporalConfig { return temporal.DefaultConfig() }

// DetectTemporalDependence analyzes update traces for similarity
// dependence (lazy copiers included).
func DetectTemporalDependence(d *Dataset, cfg TemporalConfig) (*TemporalResult, error) {
	return temporal.DetectPairs(d, cfg)
}

// WindowedTemporalConfig parameterizes sliding-window detection.
type WindowedTemporalConfig = temporal.WindowedConfig

// DefaultWindowedTemporalConfig returns overlapping 20-tick windows.
func DefaultWindowedTemporalConfig() WindowedTemporalConfig {
	return temporal.DefaultWindowedConfig()
}

// DetectTemporalOverWindows re-runs pairwise detection over sliding time
// windows and summarizes per-pair persistence ("a copier is more likely to
// remain a copier").
func DetectTemporalOverWindows(d *Dataset, cfg WindowedTemporalConfig) (*temporal.WindowedResult, error) {
	return temporal.DetectOverWindows(d, cfg)
}

// TemporalMetrics computes coverage/exactness/freshness of every source
// against a (known or estimated) world.
func TemporalMetrics(d *Dataset, w *World) map[SourceID]*SourceReport {
	return temporal.ComputeMetrics(d, w)
}

// EstimateWorld reconstructs a temporal ground-truth estimate from the
// claims alone.
func EstimateWorld(d *Dataset, rounds int) *World {
	return temporal.EstimateWorld(d, rounds)
}

// ClassifyValue labels a claimed value against an object's history.
func ClassifyValue(w *World, o ObjectID, v string, t Time) ValueClass {
	return temporal.ClassifyValue(w, o, v, t)
}

// Dissimilarity dependence.
type (
	// DissimConfig parameterizes opinion-dependence detection.
	DissimConfig = dissim.Config
	// DissimResult carries the rater-pair verdicts.
	DissimResult = dissim.Result
	// RatingScale maps ordinal labels to levels.
	RatingScale = dissim.Scale
)

// DefaultDissimConfig returns the standard detector parameters on the
// Good/Neutral/Bad scale.
func DefaultDissimConfig() DissimConfig { return dissim.DefaultConfig() }

// DetectDissimilarity analyzes rater pairs for similarity- and
// dissimilarity-dependence.
func DetectDissimilarity(d *Dataset, cfg DissimConfig) (*DissimResult, error) {
	return dissim.Detect(d, cfg)
}

// Data fusion.
type (
	// FusionConfig selects and parameterizes the conflict-resolution
	// strategy.
	FusionConfig = fusion.Config
	// FusionResult is the fused (and probabilistic) view.
	FusionResult = fusion.Result
	// FusionStrategy names a resolution policy.
	FusionStrategy = fusion.Strategy
)

// Fusion strategies.
const (
	FuseKeepFirst       = fusion.KeepFirst
	FuseMajority        = fusion.Majority
	FuseWeighted        = fusion.Weighted
	FuseDependenceAware = fusion.DependenceAware
)

// DefaultFusionConfig fuses dependence-aware.
func DefaultFusionConfig() FusionConfig { return fusion.DefaultConfig() }

// Fuse resolves all conflicts in the dataset.
func Fuse(d *Dataset, cfg FusionConfig) (*FusionResult, error) {
	return fusion.Fuse(d, cfg)
}

// Record linkage.
type (
	// LinkageConfig parameterizes representation clustering.
	LinkageConfig = linkage.Config
	// LinkageResult carries clusters and the canonicalized dataset.
	LinkageResult = linkage.Result
)

// DefaultLinkageConfig links author-list style values.
func DefaultLinkageConfig() LinkageConfig { return linkage.DefaultConfig() }

// Link clusters alternative representations per object and rewrites the
// dataset with canonical values.
func Link(d *Dataset, cfg LinkageConfig) (*LinkageResult, error) {
	return linkage.Link(d, cfg)
}

// IterativeLinkageConfig parameterizes the alternating linkage/truth loop.
type IterativeLinkageConfig = linkage.IterativeConfig

// DefaultIterativeLinkageConfig returns two rounds with moderate vetoes.
func DefaultIterativeLinkageConfig() IterativeLinkageConfig {
	return linkage.DefaultIterativeConfig()
}

// LinkThenDiscover alternates record linkage and truth discovery (§4's
// "iterative strategies can simultaneously help in record linkage and in
// determining source dependence"): later rounds refuse to merge forms the
// current beliefs say are wrong values rather than representations.
func LinkThenDiscover(d *Dataset, cfg IterativeLinkageConfig) (*linkage.IterativeResult, error) {
	return linkage.LinkThenDiscover(d, cfg)
}

// Online query answering.
type (
	// QueryConfig parameterizes the source-probing planner.
	QueryConfig = queryans.Config
	// QueryResult is the probing trace with per-step answers.
	QueryResult = queryans.Result
	// QueryPolicy selects the probing order.
	QueryPolicy = queryans.Policy
)

// Query policies.
const (
	QueryGreedyGain       = queryans.GreedyGain
	QueryAccuracyCoverage = queryans.AccuracyCoverage
	QueryByID             = queryans.ByID
)

// DefaultQueryConfig returns the planner defaults.
func DefaultQueryConfig() QueryConfig { return queryans.DefaultConfig() }

// AnswerQuery probes sources one at a time to answer the value of each
// query object, avoiding sources dependent on those already visited.
func AnswerQuery(d *Dataset, query []ObjectID, cfg QueryConfig) (*QueryResult, error) {
	return queryans.AnswerObjects(d, query, cfg)
}

// Serving layer.
type (
	// Session is the long-lived query-serving layer: built once from a
	// frozen dataset, it caches the compiled columnar index, the discovered
	// accuracies and the dependence table, then serves unlimited §4
	// application calls concurrently.
	Session = session.Session
	// SessionConfig parameterizes session construction.
	SessionConfig = session.Config
)

// DefaultSessionConfig returns the standard serving parameters
// (dependence-aware precompute, greedy-gain query planning,
// dependence-aware fusion).
func DefaultSessionConfig() SessionConfig { return session.DefaultConfig() }

// NewSession runs the one-time precompute (columnar compilation, truth
// discovery, dependence detection) and returns the reusable serving
// session. Every serving call is bit-identical to the corresponding
// one-shot entry point fed the same discovery result.
func NewSession(d *Dataset, cfg SessionConfig) (*Session, error) {
	return session.New(d, cfg)
}

// Binary snapshots. A session snapshot (Session.WriteSnapshot) is the
// solve's dense state as it lies in memory, in an aligned section container:
// the dataset's compiled tables and interned strings, its claim log as id
// columns into them, the accuracy and posterior vectors and the analysed
// pairs' records. A query server opens it into the session New would build,
// without a re-run of discovery or a re-interning of the claims
// (LoadSessionFile): the dataset is built from the log over the stored
// tables, and the source×source totals table is derived from the pair
// records. There is one format.

// LoadSession reads a session snapshot written by Session.WriteSnapshot
// into memory and assembles a serving session without re-running
// discovery. cfg must match the snapshot's precompute-shaping fields
// (checked against the stored fingerprint); serving knobs are free to
// differ. The loaded session serves bit-identical results to the one the
// snapshot was taken of.
func LoadSession(r io.Reader, cfg SessionConfig) (*Session, error) {
	return session.LoadSnapshot(r, cfg)
}

// LoadSessionFile reads a session snapshot file into one buffer of the
// file's size and opens the session it holds, as LoadSession does. Answers
// are bit-identical to LoadSession's and to the session written. The session
// keeps no hold on the file, and Close on it does nothing.
func LoadSessionFile(path string, cfg SessionConfig) (*Session, error) {
	return session.LoadSnapshotFile(path, cfg)
}

// Source recommendation.
type (
	// SourceProfile summarizes one source's quality axes.
	SourceProfile = recommend.Profile
	// TrustWeights scalarizes profiles into trust.
	TrustWeights = recommend.Weights
	// DiversePick is one diversity-mode recommendation.
	DiversePick = recommend.DiversePick
)

// DefaultTrustWeights balances accuracy, coverage, freshness and
// independence.
func DefaultTrustWeights() TrustWeights { return recommend.DefaultWeights() }

// BuildSourceProfiles derives profiles from discovery results (dep and
// reports may be nil); dep must have been detected on d.
func BuildSourceProfiles(d *Dataset, dep *DependenceResult,
	reports map[SourceID]*SourceReport) []SourceProfile {
	return recommend.BuildProfiles(d, dep.State(), reports)
}

// RecommendSources returns the k most trusted sources.
func RecommendSources(profiles []SourceProfile, w TrustWeights, k int) ([]SourceProfile, error) {
	return recommend.Top(profiles, w, k)
}

// RecommendDiverse returns k trusted sources plus dissenting voices that
// dissimilarity-depend on them.
func RecommendDiverse(profiles []SourceProfile, w TrustWeights, diss *DissimResult,
	k, extraDissent int) ([]DiversePick, error) {
	return recommend.TopDiverse(profiles, w, diss, k, extraDissent)
}
