// Registry of named serving sessions, epoch-versioned for live ingest.
//
// A server hosts many datasets at once — the multi-dataset registry the
// ROADMAP's traffic goal needs. Sessions register under a URL-safe name and
// are themselves immutable and concurrency-safe; mutation happens by
// *swapping* a dataset's session for a successor, never in place. Every
// entry carries an epoch counter that increments on each swap, so the
// serving layers above (answer cache, singleflight) can key responses to
// the exact session generation they were computed from. Lookups on the
// request path take a read lock; the per-entry update mutex serializes
// writers only and never blocks readers.
//
// An entry is not a single generation: the current session heads an epoch
// ring — the session-layer history spine (session.AsOf) retains up to
// RetainEpochs predecessors behind it, so as-of requests resolve retired
// generations through the same pinned acquire as current ones. Mapped
// predecessors that fall out of the window drain into a per-entry grave
// and are unmapped only once the entry's pin count proves no in-flight
// request can still read them — the same quiescence contract -max-resident
// eviction uses.
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
// under — the route layer's 404, distinct from a failed lazy load (500).
var ErrUnknownDataset = errors.New("server: unknown dataset")

// reloadSpec records how to (re)load an entry's session from disk: the lazy
// manifest LoadDir registers instead of paying the load up front, and what
// eviction falls back on to bring an idle world back.
type reloadSpec struct {
	path string
	cfg  session.Config
}

// entry is one registered dataset: the current session, its epoch, and the
// write-side bookkeeping. The session pointer and epoch are guarded by the
// registry lock (a swap replaces both under the write lock, so a reader
// holding the read lock always observes a matching pair). updateMu
// serializes Update callers per dataset — successor construction can take
// milliseconds and must not hold the registry lock.
//
// sess == nil means the entry is not resident: a lazy manifest not yet
// loaded, or a world evicted under -max-resident. spec then says how to
// load it; loadMu makes concurrent first requests load it exactly once.
// pins counts in-flight requests holding the current session (incremented
// under the registry read lock, checked by eviction under the write lock,
// so an eviction never unmaps a session a request still reads).
type entry struct {
	sess   *session.Session
	epoch  uint64
	spec   *reloadSpec
	loaded bool // epoch has been initialized from a load, verify, or Register
	// dirty marks an entry whose serving state has diverged from the
	// snapshot on disk (a live append swap). Dirty entries are never
	// evicted — eviction reloads from disk, which would lose the appended
	// epochs. Replace clears it: a re-streamed snapshot IS the serving
	// state. Guarded by the registry lock, like sess and epoch.
	dirty    bool
	loadMu   sync.Mutex
	pins     atomic.Int64
	lastUsed atomic.Int64
	updateMu sync.Mutex
	swaps    atomic.Int64
	appends  atomic.Int64
	// verified records that the entry's snapshot has been proven loadable at
	// least once (a successful load, adopt validation, or /readyz probe).
	// Eviction keeps the bit: the file on disk was good and is not rewritten
	// by eviction, so readiness probes stay cheap for evicted worlds.
	verified atomic.Bool
	// grave holds mapped historical sessions that fell out of the epoch
	// retention window (drained from the session spine on Update). They are
	// closed only when pins reaches zero — an in-flight as-of request
	// resolved its historical session while holding the entry pin, so
	// pins == 0 proves no request can still read a graved mapping. graveLen
	// mirrors len(grave) so the release fast path can skip reaping without
	// taking graveMu.
	graveMu  sync.Mutex
	grave    []*session.Session
	graveLen atomic.Int64
}

// Registry maps dataset names to epoch-versioned serving sessions.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
	// maxResident bounds how many sessions stay loaded at once (0 = no
	// bound). When a lazy load pushes the resident count over, the
	// least-recently-used idle reloadable world is closed and unmapped.
	maxResident int
	useClock    atomic.Int64
	loads       atomic.Int64
	evictions   atomic.Int64
	// evictPending is set while the resident count exceeds maxResident only
	// because evictable worlds are pinned: the last unpin of any entry then
	// re-runs eviction (see settle). It is written under the write lock and
	// read lock-free on the release path.
	evictPending atomic.Bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*entry{}}
}

// SetMaxResident bounds the number of concurrently resident sessions
// (0 removes the bound) and evicts immediately if the bound is already
// exceeded. Only idle (unpinned), never-swapped entries with a reload spec
// are evictable; others stay resident regardless of the bound.
func (r *Registry) SetMaxResident(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maxResident = n
	r.evictLocked(nil)
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
// The entry's epoch starts at the session dataset's append-log epoch, so a
// registry epoch always equals the number of batches the served dataset
// has absorbed since its flat origin.
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
	e := &entry{sess: s, epoch: uint64(s.DatasetEpoch()), loaded: true}
	e.verified.Store(true)
	r.entries[name] = e
	return nil
}

// RegisterLazy records a dataset manifest without loading it: the snapshot
// at path is checked only as far as its magic and version, and the session
// maps on the first request that needs it. This is the zero-cost cold-start
// path for multi-world servers.
func (r *Registry) RegisterLazy(name, path string, cfg session.Config) error {
	if !validName(name) {
		return fmt.Errorf("server: invalid dataset name %q", name)
	}
	if err := session.CheckSnapshotFile(path); err != nil {
		return fmt.Errorf("server: %s: %w", path, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		return fmt.Errorf("server: dataset %q already registered", name)
	}
	r.entries[name] = &entry{spec: &reloadSpec{path: path, cfg: cfg}}
	return nil
}

// Acquire returns name's current session and epoch with the entry pinned:
// the returned release func must be called once the request is done with
// the session, after which eviction may unmap it. A non-resident entry
// (lazy manifest or evicted world) loads first — concurrent acquirers of
// the same world share one load via the entry's load mutex. Unknown names
// return ErrUnknownDataset; a failed load returns its cause.
func (r *Registry) Acquire(name string) (*session.Session, uint64, func(), error) {
	for {
		r.mu.RLock()
		e, ok := r.entries[name]
		if !ok {
			r.mu.RUnlock()
			return nil, 0, nil, fmt.Errorf("%w %q", ErrUnknownDataset, name)
		}
		if e.sess != nil {
			// Pin under the read lock: eviction runs under the write lock
			// and skips pinned entries, so this session stays mapped until
			// release.
			e.pins.Add(1)
			e.lastUsed.Store(r.useClock.Add(1))
			s, epoch := e.sess, e.epoch
			r.mu.RUnlock()
			var once sync.Once
			return s, epoch, func() { once.Do(func() { r.unpin(e) }) }, nil
		}
		r.mu.RUnlock()
		if err := r.load(e); err != nil {
			return nil, 0, nil, err
		}
	}
}

// load brings a non-resident entry's session into memory from its reload
// spec. The load itself runs without the registry lock (it can take
// milliseconds); installation takes the write lock and triggers eviction
// if the resident bound is now exceeded.
func (r *Registry) load(e *entry) error {
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	r.mu.RLock()
	resident := e.sess != nil
	r.mu.RUnlock()
	if resident {
		return nil // another acquirer loaded it while we waited
	}
	if e.spec == nil {
		return fmt.Errorf("server: dataset has no snapshot to reload from")
	}
	s, err := session.LoadSnapshotFile(e.spec.path, e.spec.cfg)
	if err != nil {
		return fmt.Errorf("server: load %s: %w", e.spec.path, err)
	}
	r.mu.Lock()
	e.sess = s
	// Most recently used from the moment it lands: a release settling the
	// bound before this load's acquirer pins must not pick it as the victim.
	e.lastUsed.Store(r.useClock.Add(1))
	e.verified.Store(true)
	if !e.loaded {
		e.epoch = uint64(s.DatasetEpoch())
		e.loaded = true
	}
	r.loads.Add(1)
	r.evictLocked(e)
	r.mu.Unlock()
	return nil
}

// evictLocked closes least-recently-used sessions until the resident count
// fits maxResident. Callers hold the write lock. Only entries that are
// unpinned, never swapped (their serving state is exactly the snapshot on
// disk) and reloadable are candidates; keep, the entry that triggered the
// eviction, is never chosen even before its acquirer pins it. When the bound
// stays exceeded because a candidate is pinned, evictPending tells the
// release path to come back once the pin drops.
func (r *Registry) evictLocked(keep *entry) {
	if r.maxResident <= 0 {
		r.evictPending.Store(false)
		return
	}
	// Raised before any pin count is read: a release that drops a pin after
	// this scan saw it held must observe the flag (it is lowered below only
	// when no pinned candidate was seen).
	r.evictPending.Store(true)
	for {
		resident, blocked := 0, false
		var victim *entry
		for _, e := range r.entries {
			if e.sess == nil {
				continue
			}
			resident++
			if e == keep || e.spec == nil || e.dirty {
				continue
			}
			if e.pins.Load() != 0 {
				blocked = true
				continue
			}
			if victim == nil || e.lastUsed.Load() < victim.lastUsed.Load() {
				victim = e
			}
		}
		if resident <= r.maxResident || victim == nil {
			r.evictPending.Store(resident > r.maxResident && blocked)
			return
		}
		_ = victim.sess.Close()
		victim.sess = nil
		r.evictions.Add(1)
	}
}

// unpin drops one request's pin on e. The common case is one atomic
// decrement and two atomic loads; only the last unpin of an entry with work
// pending — graved sessions to close, or a resident bound that pinned
// worlds kept eviction from enforcing — takes the write lock.
func (r *Registry) unpin(e *entry) {
	if e.pins.Add(-1) == 0 && (e.graveLen.Load() > 0 || r.evictPending.Load()) {
		r.settle(e)
	}
}

// settle is the one path that discharges what a dropped pin may have been
// holding up: it closes e's graved historical sessions and re-runs eviction.
// Both pins checks run under the registry write lock — the same lock
// Acquire pins under — so a close never races a request: any request
// reading a session (current or a resolved as-of epoch) holds the entry pin
// for its whole lifetime, and a graved epoch was removed from the session
// spine before its session was graved.
func (r *Registry) settle(e *entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.pins.Load() == 0 && e.graveLen.Load() > 0 {
		e.graveMu.Lock()
		dead := e.grave
		e.grave = nil
		e.graveLen.Store(0)
		e.graveMu.Unlock()
		for _, s := range dead {
			_ = s.Close()
		}
	}
	r.evictLocked(nil)
}

// swap atomically replaces name's session with next and advances the
// epoch, returning the new epoch. In-flight requests holding the retired
// session finish against it undisturbed (sessions are immutable); requests
// routed after swap returns observe only the successor. It is update's last
// step: a session only ever leaves the registry pinned, so nothing outside
// this file can hold one to swap.
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
	e.epoch++
	e.dirty = true
	e.swaps.Add(1)
	return e.epoch, nil
}

// ErrReplaceStale reports a Replace whose candidate snapshot does not
// advance the live epoch: the dataset moved on (or was already replaced)
// between the snapshot being streamed and the swap, so there is nothing to
// heal and nothing was changed.
var ErrReplaceStale = errors.New("server: replacement snapshot is not newer than the live epoch")

// Replace installs a freshly streamed snapshot as name's new current
// generation: session, epoch (taken from the snapshot's own append-log
// epoch), and reload spec all swap together. The old chain's mapped
// sessions are graved and closed once in-flight requests drain — exactly
// the quiescence contract Update uses. Because the new serving state is
// byte-identical to the file at path, the entry comes out clean (evictable)
// and verified. This is the repair path: a lagging replica converges by
// adopting the primary's snapshot over its own world.
//
// Replace is a compare-and-swap on the epoch: it holds the entry's update
// mutex (so no concurrent append can build a successor on the pre-replace
// chain and swap it in at an epoch the replace would shadow — the
// same-epoch fork the epoch-comparing repair scan could never detect) and
// the load mutex (so a concurrent lazy load cannot reinstall the old
// snapshot over the replaced session), and only then rechecks the live
// epoch. A candidate at or behind the live epoch returns ErrReplaceStale
// with nothing changed. commit, when non-nil, runs after the epoch check
// passes and before the new session becomes visible — the caller's slot for
// renaming the snapshot into the serving directory and flushing caches
// keyed to the replaced chain; a commit error aborts the replace.
func (r *Registry) Replace(name string, s *session.Session, path string, cfg session.Config, commit func() error) (uint64, error) {
	if s == nil {
		return 0, fmt.Errorf("server: nil session for %q", name)
	}
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("server: unknown dataset %q", name)
	}
	// Entries are never removed from the map, so the pointer stays valid
	// across the unlock. updateMu before loadMu mirrors Update's order
	// (updateMu, then Acquire's load takes loadMu).
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	e.loadMu.Lock()
	defer e.loadMu.Unlock()

	r.mu.RLock()
	cur, known := e.epoch, e.loaded
	r.mu.RUnlock()
	// With both mutexes held nothing can advance the epoch or initialize it
	// (Update, load, VerifyAll all serialize against them), so this check
	// holds through the install below.
	if known && uint64(s.DatasetEpoch()) <= cur {
		return 0, ErrReplaceStale
	}
	if commit != nil {
		if err := commit(); err != nil {
			return 0, err
		}
	}

	r.mu.Lock()
	var dead []*session.Session
	if e.sess != nil {
		dead = e.sess.TakeAllMapped()
	}
	e.sess = s
	e.epoch = uint64(s.DatasetEpoch())
	e.spec = &reloadSpec{path: path, cfg: cfg}
	e.loaded = true
	e.dirty = false
	e.swaps.Add(1)
	e.verified.Store(true)
	epoch := e.epoch
	r.mu.Unlock()
	if len(dead) > 0 {
		e.graveMu.Lock()
		e.grave = append(e.grave, dead...)
		e.graveLen.Store(int64(len(e.grave)))
		e.graveMu.Unlock()
		if e.pins.Load() == 0 {
			r.settle(e)
		}
	}
	return epoch, nil
}

// KnownEpochs returns the epoch of every entry whose epoch is known (it
// loaded, verified, or registered at least once) — the shard's /readyz
// epoch report, which the router's anti-entropy repair loop compares
// across a placement to find lagging replicas.
func (r *Registry) KnownEpochs() map[string]uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]uint64, len(r.entries))
	for name, e := range r.entries {
		if e.loaded {
			out[name] = e.epoch
		}
	}
	return out
}

// Update runs fn against name's current session under the entry's update
// mutex and, on success, swaps in the session fn returns. fn typically
// builds a successor via Session.Append — and may persist a log segment
// before returning, so a failed write aborts the swap. Concurrent Update
// calls for the same dataset are serialized; readers are never blocked.
// Returns the swapped-in session and its new epoch. Update is the live
// ingest path and counts on currents_dataset_appends_total; boot replay
// advances worlds through the same update without counting.
func (r *Registry) Update(name string, fn func(cur *session.Session) (*session.Session, error)) (*session.Session, uint64, error) {
	next, epoch, e, err := r.update(name, fn)
	if err != nil {
		return nil, 0, err
	}
	e.appends.Add(1)
	return next, epoch, nil
}

// update is the one way a world advances an epoch: lock, pin, fn, swap,
// grave what the swap pruned.
func (r *Registry) update(name string, fn func(cur *session.Session) (*session.Session, error)) (*session.Session, uint64, *entry, error) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return nil, 0, nil, fmt.Errorf("server: unknown dataset %q", name)
	}
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	// Acquire (rather than a bare read) both loads a non-resident world and
	// pins it for the duration of fn, so eviction cannot unmap the session
	// an append is reading from.
	cur, _, release, err := r.Acquire(name)
	if err != nil {
		return nil, 0, nil, err
	}
	defer release()
	next, err := fn(cur)
	if err != nil {
		return nil, 0, nil, err
	}
	epoch, err := r.swap(name, next)
	if err != nil {
		return nil, 0, nil, err
	}
	// The swap may have pushed mapped epochs out of the retention window;
	// park them in the grave and close them once in-flight requests drain.
	if dead := next.TakePrunedMapped(); len(dead) > 0 {
		e.graveMu.Lock()
		e.grave = append(e.grave, dead...)
		e.graveLen.Store(int64(len(e.grave)))
		e.graveMu.Unlock()
		release() // the last unpin (ours or a reader's) sees graveLen and settles
	}
	return next, epoch, e, nil
}

// DatasetStat is one dataset's lifecycle counters, for /metrics.
type DatasetStat struct {
	Name    string
	Epoch   uint64
	Swaps   int64
	Appends int64
	// Resident reports whether the session is currently loaded;
	// MappedBytes is the size of its mmap'd snapshot (0 for heap-backed
	// sessions and non-resident entries).
	Resident    bool
	MappedBytes int64
	// RetainedEpochs counts historical epochs addressable via as_of behind
	// the current one; AsOfMaterializations counts lazy historical rebuilds
	// the epoch spine has paid. Both are 0 for non-resident entries.
	RetainedEpochs       int
	AsOfMaterializations int64
}

// Stats returns per-dataset lifecycle counters, sorted by name.
func (r *Registry) Stats() []DatasetStat {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]DatasetStat, 0, len(r.entries))
	for name, e := range r.entries {
		st := DatasetStat{
			Name:     name,
			Epoch:    e.epoch,
			Swaps:    e.swaps.Load(),
			Appends:  e.appends.Load(),
			Resident: e.sess != nil,
		}
		if e.sess != nil {
			st.MappedBytes = e.sess.MappedBytes()
			st.RetainedEpochs = e.sess.RetainedEpochs()
			st.AsOfMaterializations = e.sess.HistMaterializations()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ResidencyStats aggregates the lazy-registry gauges for /metrics:
// currently resident sessions, total mmap'd bytes across them, and the
// lifetime load and eviction counts.
type ResidencyStats struct {
	Resident    int
	MappedBytes int64
	Loads       int64
	Evictions   int64
}

// Residency returns the registry-wide residency gauges.
func (r *Registry) Residency() ResidencyStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rs := ResidencyStats{Loads: r.loads.Load(), Evictions: r.evictions.Load()}
	for _, e := range r.entries {
		if e.sess != nil {
			rs.Resident++
			rs.MappedBytes += e.sess.MappedBytes()
		}
	}
	return rs
}

// ReadyStatus is one dataset's readiness verification result.
type ReadyStatus struct {
	Name string
	Err  error // nil when the world is verified loadable
}

// VerifyAll actively proves every registered world loadable: resident
// sessions and previously-verified entries pass immediately; an unverified
// lazy manifest is opened end to end (full container validation, typed
// section views) and closed again, caching the verdict on success. This is
// the /readyz work — a router probing it never routes to a shard whose
// snapshot is corrupt, which registration's header check cannot promise.
// Results come back sorted by name.
func (r *Registry) VerifyAll() []ReadyStatus {
	r.mu.RLock()
	snap := make(map[string]*entry, len(r.entries))
	for name, e := range r.entries {
		snap[name] = e
	}
	r.mu.RUnlock()
	out := make([]ReadyStatus, 0, len(snap))
	for name, e := range snap {
		st := ReadyStatus{Name: name}
		if !e.verified.Load() {
			// Serialize with real loads so a concurrent first request and a
			// readiness probe don't validate the same file twice.
			e.loadMu.Lock()
			if !e.verified.Load() && e.sess == nil {
				if e.spec == nil {
					st.Err = fmt.Errorf("server: dataset %q has no snapshot to verify", name)
				} else if s, err := session.LoadSnapshotFile(e.spec.path, e.spec.cfg); err != nil {
					st.Err = fmt.Errorf("server: verify %s: %w", e.spec.path, err)
				} else {
					// The verify pass learned the world's epoch for free;
					// record it so /readyz can report it without a real load
					// (the repair loop's lag signal).
					r.mu.Lock()
					if !e.loaded {
						e.epoch = uint64(s.DatasetEpoch())
						e.loaded = true
					}
					r.mu.Unlock()
					_ = s.Close()
					e.verified.Store(true)
				}
			}
			e.loadMu.Unlock()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AllVerified reports whether every registered world has already been
// proven loadable, without triggering any load — the cheap "loading vs
// ready" distinction /healthz exposes. A freshly booted lazy server reports
// false here until its worlds are first touched or /readyz verifies them.
func (r *Registry) AllVerified() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, e := range r.entries {
		if !e.verified.Load() {
			return false
		}
	}
	return true
}

// markVerified caches a loadability verdict proven externally (adopt
// validates the fetched snapshot end to end before registering it).
func (r *Registry) markVerified(name string) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if ok {
		e.verified.Store(true)
	}
}

// recordEpoch caches an epoch learned externally (adopt validation reads
// the snapshot end to end) so /readyz reports it before any real load.
func (r *Registry) recordEpoch(name string, epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if ok && !e.loaded {
		e.epoch = epoch
		e.loaded = true
	}
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

// LoadDir populates a registry from a directory: every *.snap file loads as
// a session snapshot (the fast cold-start path) and every *.csv file as raw
// claims that build a fresh session (paying the full precompute). The
// dataset name is the file name without extension. After the base datasets
// load, any append-log segments (`<name>.<epoch>.seg`, written by a server
// persisting live appends) replay in epoch order through Session.Append,
// restoring the exact post-append serving state; segments at or below the
// loaded dataset's epoch — left behind by an interrupted compaction — are
// skipped. logf, when non-nil, receives one line per dataset (used by the
// CLI to report cold-start progress); pass nil to load silently.
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
			// Snapshots register as lazy manifests: the header is checked now,
			// the session maps on the first request that needs it. A
			// directory of N worlds cold-starts in O(N) header reads.
			if err := reg.RegisterLazy(name, path, cfg); err != nil {
				return nil, err
			}
			logf("registered %q from snapshot %s (loads on first request)", name, e.Name())
			continue
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
		_, epoch, release, err := reg.Acquire(sf.dataset)
		if err != nil {
			return fmt.Errorf("server: segment %s: %w", sf.path, err)
		}
		release()
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
