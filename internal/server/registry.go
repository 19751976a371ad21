// Registry of named serving sessions, epoch-versioned for live ingest.
//
// A server hosts many datasets at once — the multi-dataset registry the
// ROADMAP's traffic goal needs. Sessions register under a URL-safe name and
// are themselves immutable and concurrency-safe; mutation happens by
// *swapping* a dataset's session for a successor, never in place. A
// registered world is resident from registration until the process exits:
// LoadDir opens every snapshot before it returns, adopt registers the
// session it validated, and nothing closes a current session. Its epoch is
// its session's dataset epoch, which every swap advances, so the serving
// layers above (answer cache, singleflight) can key responses to the exact
// session generation they were computed from. Lookups on the request path
// take a read lock; the per-entry update mutex serializes writers only and
// never blocks readers.
//
// An entry is not a single generation: the current session heads an epoch
// ring — the session-layer history spine (session.AsOf) retains up to
// RetainEpochs predecessors behind it, so as-of requests resolve retired
// generations off the session Current returns. Sessions are ordinary heap
// objects, booted ones included: a request holds the session it
// resolved for as long as it needs it, and the garbage collector reclaims a
// retired one after the last such request, so the registry counts no
// readers and releases nothing by hand.
package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/session"
)

// ErrUnknownDataset reports a lookup for a name no entry is registered
// under — the route layer's 404.
var ErrUnknownDataset = errors.New("server: unknown dataset")

// entry is one registered dataset: the current session and the write-side
// bookkeeping. The session pointer is guarded by the registry lock (a swap
// replaces it under the write lock). updateMu serializes update callers per
// dataset — successor construction can take milliseconds and must not hold
// the registry lock.
type entry struct {
	sess     *session.Session
	updateMu sync.Mutex
	swaps    atomic.Int64
	appends  atomic.Int64
	// deltaAppends counts the appends that applied a primary's epoch delta
	// instead of solving (a subset of appends).
	deltaAppends atomic.Int64
}

// Registry maps dataset names to epoch-versioned serving sessions.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*entry{}}
}

// validName reports whether a dataset name is URL-safe (letters, digits,
// dot, underscore, dash; non-empty; no leading dot).
func validName(name string) bool {
	if name == "" || name[0] == '.' {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// Register adds a session under name, rejecting invalid or duplicate names.
// The entry's epoch is the session dataset's append-log epoch, so a registry
// epoch always equals the number of batches the served dataset has absorbed
// since its flat origin.
func (r *Registry) Register(name string, s *session.Session) error {
	if !validName(name) {
		return fmt.Errorf("server: invalid dataset name %q", name)
	}
	if s == nil {
		return fmt.Errorf("server: nil session for %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		return fmt.Errorf("server: dataset %q already registered", name)
	}
	r.entries[name] = &entry{sess: s}
	return nil
}

// Current returns name's current session and its epoch. Unknown names return
// ErrUnknownDataset.
func (r *Registry) Current(name string) (*session.Session, uint64, error) {
	r.mu.RLock()
	e, ok := r.entries[name]
	if !ok {
		r.mu.RUnlock()
		return nil, 0, fmt.Errorf("%w %q", ErrUnknownDataset, name)
	}
	s := e.sess
	r.mu.RUnlock()
	return s, uint64(s.DatasetEpoch()), nil
}

// Acquire is Current with a release func, which does nothing.
//
// Deprecated: a request no longer pins its world; call Current.
func (r *Registry) Acquire(name string) (*session.Session, uint64, func(), error) {
	s, epoch, err := r.Current(name)
	return s, epoch, func() {}, err
}

// swap atomically replaces name's session with next and returns next's
// dataset epoch — one past the retired session's for an append, more for a
// delta across several batches. In-flight requests holding the retired
// session finish against it undisturbed (sessions are immutable); requests
// routed after swap returns observe only the successor. It is update's last
// step.
func (r *Registry) swap(name string, next *session.Session) (uint64, error) {
	if next == nil {
		return 0, fmt.Errorf("server: nil session for %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return 0, fmt.Errorf("server: unknown dataset %q", name)
	}
	e.sess = next
	e.swaps.Add(1)
	return uint64(next.DatasetEpoch()), nil
}

// KnownEpochs returns every registered dataset's epoch — the shard's /readyz
// epoch report, which the router's anti-entropy repair loop compares across
// a placement to find lagging replicas.
func (r *Registry) KnownEpochs() map[string]uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]uint64, len(r.entries))
	for name, e := range r.entries {
		out[name] = uint64(e.sess.DatasetEpoch())
	}
	return out
}

// ingest runs fn against name's current session under the entry's update
// mutex and, on success, swaps in the session fn returns. fn typically
// builds a successor via Session.Append — and may persist a log segment
// before returning, so a failed write aborts the swap. Concurrent ingest
// calls for the same dataset are serialized; readers are never blocked.
// Returns the swapped-in session and its new epoch. ingest is the live
// append path and counts on currents_dataset_appends_total, and on
// currents_dataset_delta_appends_total too when delta is set (an append
// applied from a primary's epoch delta); boot replay advances worlds
// through the same update without counting.
func (r *Registry) ingest(name string, fn func(cur *session.Session) (*session.Session, error), delta bool) (*session.Session, uint64, error) {
	next, epoch, e, err := r.update(name, fn)
	if err != nil {
		return nil, 0, err
	}
	e.appends.Add(1)
	if delta {
		e.deltaAppends.Add(1)
	}
	return next, epoch, nil
}

// update is the one way a world advances an epoch: lock, fn, swap.
func (r *Registry) update(name string, fn func(cur *session.Session) (*session.Session, error)) (*session.Session, uint64, *entry, error) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return nil, 0, nil, fmt.Errorf("server: unknown dataset %q", name)
	}
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	cur, _, err := r.Current(name)
	if err != nil {
		return nil, 0, nil, err
	}
	next, err := fn(cur)
	if err != nil {
		return nil, 0, nil, err
	}
	epoch, err := r.swap(name, next)
	if err != nil {
		return nil, 0, nil, err
	}
	return next, epoch, e, nil
}

// DatasetStat is one dataset's lifecycle counters, for /metrics.
type DatasetStat struct {
	Name    string
	Epoch   uint64
	Swaps   int64
	Appends int64
	// DeltaAppends counts the appends applied from a primary's epoch delta.
	DeltaAppends int64
	// RetainedEpochs counts historical epochs addressable via as_of behind
	// the current one; AsOfMaterializations counts lazy historical rebuilds
	// the epoch spine has paid.
	RetainedEpochs       int
	AsOfMaterializations int64
}

// Stats returns per-dataset lifecycle counters, sorted by name.
func (r *Registry) Stats() []DatasetStat {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]DatasetStat, 0, len(r.entries))
	for name, e := range r.entries {
		out = append(out, DatasetStat{
			Name:                 name,
			Epoch:                uint64(e.sess.DatasetEpoch()),
			Swaps:                e.swaps.Load(),
			Appends:              e.appends.Load(),
			DeltaAppends:         e.deltaAppends.Load(),
			RetainedEpochs:       e.sess.RetainedEpochs(),
			AsOfMaterializations: e.sess.HistMaterializations(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the registered dataset names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for name := range r.entries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered datasets.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// LoadDir populates a registry from a directory: every *.snap file is read
// as a session snapshot (session.LoadSnapshotFile: no discovery re-run) and
// every *.csv file read as raw claims that build a fresh session (paying the
// full precompute). Either way the world is open and registered before
// LoadDir returns, and a file that does not open fails LoadDir, naming it.
// The dataset name is the file name without extension. After the base
// datasets load, any append-log segments (`<name>.<epoch>.seg`, written by a
// server persisting live appends) replay in epoch order through
// Session.Append, restoring the exact post-append serving state; segments at
// or below the loaded dataset's epoch — left behind by an interrupted
// compaction — are skipped. logf, when non-nil, receives one line per
// dataset (used by the CLI to report boot progress); pass nil to load
// silently.
func LoadDir(dir string, cfg session.Config, logf func(format string, args ...any)) (*Registry, error) {
	return loadDir(dir, cfg, logf, false)
}

// LoadDirAllowEmpty is LoadDir for fleet shards: a directory with no
// datasets is not an error, because a fresh shard legitimately boots empty
// and adopts its assigned worlds from peers via snapshot streaming.
func LoadDirAllowEmpty(dir string, cfg session.Config, logf func(format string, args ...any)) (*Registry, error) {
	return loadDir(dir, cfg, logf, true)
}

func loadDir(dir string, cfg session.Config, logf func(format string, args ...any), allowEmpty bool) (*Registry, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	// A .snap is a precompute of a .csv; when both share a base name (the
	// natural `currents snapshot -o data/x.snap data/x.csv` layout), serve
	// the snapshot and skip the claims file instead of failing on the
	// duplicate name.
	hasSnap := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".snap" {
			hasSnap[strings.TrimSuffix(e.Name(), ".snap")] = true
		}
	}
	reg := NewRegistry()
	var segs []segmentFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		ext := filepath.Ext(e.Name())
		name := strings.TrimSuffix(e.Name(), ext)
		path := filepath.Join(dir, e.Name())
		var s *session.Session
		switch ext {
		case ".snap":
			if s, err = session.LoadSnapshotFile(path, cfg); err != nil {
				return nil, fmt.Errorf("server: load %s: %w", path, err)
			}
			info, err := e.Info()
			if err != nil {
				return nil, err
			}
			logf("opened %q from snapshot %s (%d bytes)", name, e.Name(), info.Size())
		case ".csv":
			if hasSnap[name] {
				logf("skipping %s: %q is served from its snapshot", e.Name(), name)
				continue
			}
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			claims, err := dataset.ReadCSV(f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("server: read %s: %w", path, err)
			}
			d, err := dataset.FromClaims(claims)
			if err != nil {
				return nil, fmt.Errorf("server: build %s: %w", path, err)
			}
			s, err = session.New(d, cfg)
			if err != nil {
				return nil, fmt.Errorf("server: build %s: %w", path, err)
			}
			logf("built %q from claims %s (full precompute)", name, e.Name())
		case ".seg":
			if sf, ok := parseSegmentName(name); ok {
				sf.path = path
				segs = append(segs, sf)
			} else {
				logf("skipping %s: not a <name>.<epoch>.seg segment", e.Name())
			}
			continue
		default:
			continue
		}
		if err := reg.Register(name, s); err != nil {
			return nil, err
		}
	}
	if reg.Len() == 0 && !allowEmpty {
		return nil, fmt.Errorf("server: no datasets (*.snap, *.csv) in %s", dir)
	}
	if err := replaySegments(reg, segs, logf); err != nil {
		return nil, err
	}
	return reg, nil
}

// segmentFile is one parsed append-log segment file name.
type segmentFile struct {
	dataset string
	epoch   int
	path    string
}

// parseSegmentName splits a segment base name (extension already stripped)
// into dataset name and epoch: "flights.000003" → ("flights", 3).
func parseSegmentName(base string) (segmentFile, bool) {
	i := strings.LastIndexByte(base, '.')
	if i <= 0 || i == len(base)-1 {
		return segmentFile{}, false
	}
	epoch, err := strconv.Atoi(base[i+1:])
	if err != nil || epoch <= 0 {
		return segmentFile{}, false
	}
	return segmentFile{dataset: base[:i], epoch: epoch}, true
}

// replaySegments applies persisted append batches to their datasets in
// epoch order. A segment whose epoch is not exactly one past the dataset's
// current epoch is either stale (≤ current: superseded by a compacted
// snapshot — skipped) or evidence of a missing file (a gap — an error,
// because replaying across it would change serving state).
func replaySegments(reg *Registry, segs []segmentFile, logf func(format string, args ...any)) error {
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].dataset != segs[j].dataset {
			return segs[i].dataset < segs[j].dataset
		}
		return segs[i].epoch < segs[j].epoch
	})
	for _, sf := range segs {
		_, epoch, err := reg.Current(sf.dataset)
		if err != nil {
			return fmt.Errorf("server: segment %s: %w", sf.path, err)
		}
		if uint64(sf.epoch) <= epoch {
			logf("skipping %s: dataset %q is already at epoch %d", filepath.Base(sf.path), sf.dataset, epoch)
			continue
		}
		if uint64(sf.epoch) != epoch+1 {
			return fmt.Errorf("server: segment %s skips epochs (dataset %q at %d)", sf.path, sf.dataset, epoch)
		}
		f, err := os.Open(sf.path)
		if err != nil {
			return err
		}
		batch, err := dataset.ReadSegment(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("server: replay %s: %w", sf.path, err)
		}
		if _, _, _, err := reg.update(sf.dataset, func(cur *session.Session) (*session.Session, error) {
			return cur.Append(batch)
		}); err != nil {
			return fmt.Errorf("server: replay %s: %w", sf.path, err)
		}
		logf("replayed %s (+%d claims) onto %q", filepath.Base(sf.path), len(batch), sf.dataset)
	}
	return nil
}
