// Epoch history spine: retained predecessor sessions and as-of queries.
//
// Live ingest (Session.Append) turns one serving session into a chain of
// epochs, but until this file the chain was swap-and-discard: the successor
// served, the predecessor was dropped, and the system could only answer
// "now". The history spine makes the chain navigable. Every session built
// by New/LoadSnapshot owns a *history that its Append successors share;
// each Append pushes the predecessor into the spine and trims it to the
// configured retention window (Config.RetainEpochs), so AsOf(e) can hand
// back the exact serving state of any retained epoch.
//
// The spine is the one place old epochs are kept: a dataset holds its claims
// and batch boundaries, never its predecessors, so what a retained session
// pins — its dataset's index, the depen state, the dense tables, the
// planner — is released when it leaves the window. Every epoch stays
// *addressable* in the dataset log (Dataset.At rebuilds it from the claim
// prefix). AsOf for an epoch inside the window that has no retained session
// materializes one lazily: it advances depen.Solve forward from the nearest
// retained ancestor (or has it replay the log when none is retained),
// exactly the pass sequence a live session ran through that epoch, so a
// materialized historical session is bit-identical to the one that actually
// served then (the invariant the as-of equivalence suites pin).
//
// A session that falls out of the window is simply dropped from the spine;
// the garbage collector reclaims it once the last request reading it lets
// go.
package session

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sourcecurrents/internal/depen"
	"sourcecurrents/internal/model"
)

// epochStamp records when an epoch became the serving current — the basis
// for timestamp-form as-of resolution. Only epochs this process observed
// live get stamps; epochs restored from a snapshot's log predate the
// process and resolve by number only.
type epochStamp struct {
	epoch   int
	created time.Time
}

// history is the retention spine shared by every session on one append
// chain. All fields are guarded by mu except the materialization counter.
type history struct {
	mu sync.Mutex
	// retain bounds how many historical epochs stay behind the current one:
	// 0 none, N the last N, negative all.
	retain int
	// entries holds retained historical sessions in ascending epoch order.
	// The current session is never an entry — it is reachable directly.
	entries []*Session
	// stamps mirror entries' birth times (plus live epochs whose session
	// was replaced), ascending by epoch.
	stamps []epochStamp
	// mats counts lazy historical materializations, for /metrics.
	mats atomic.Int64
}

func newHistory(retain int) *history { return &history{retain: retain} }

// floorFor returns the lowest epoch addressable through AsOf when cur is
// the current epoch.
func (h *history) floorFor(cur int) int {
	if h.retain < 0 {
		return 0
	}
	f := cur - h.retain
	if f < 0 {
		f = 0
	}
	return f
}

// lookupLocked returns the retained session for epoch, if any.
func (h *history) lookupLocked(epoch int) (*Session, bool) {
	for _, e := range h.entries {
		if e.DatasetEpoch() == epoch {
			return e, true
		}
	}
	return nil, false
}

// insertLocked adds s keeping entries ascending by epoch. An existing entry
// for the same epoch is replaced.
func (h *history) insertLocked(s *Session) {
	epoch := s.DatasetEpoch()
	i := 0
	for i < len(h.entries) && h.entries[i].DatasetEpoch() < epoch {
		i++
	}
	if i < len(h.entries) && h.entries[i].DatasetEpoch() == epoch {
		h.entries[i] = s
		return
	}
	h.entries = append(h.entries, nil)
	copy(h.entries[i+1:], h.entries[i:])
	h.entries[i] = s
}

// stampLocked records an epoch's birth time, replacing a same-epoch stamp.
func (h *history) stampLocked(epoch int, created time.Time) {
	i := 0
	for i < len(h.stamps) && h.stamps[i].epoch < epoch {
		i++
	}
	if i < len(h.stamps) && h.stamps[i].epoch == epoch {
		h.stamps[i].created = created
		return
	}
	h.stamps = append(h.stamps, epochStamp{})
	copy(h.stamps[i+1:], h.stamps[i:])
	h.stamps[i] = epochStamp{epoch: epoch, created: created}
}

// trimLocked drops entries and stamps below the retention floor for cur,
// releasing their sessions to the garbage collector.
func (h *history) trimLocked(cur int) {
	floor := h.floorFor(cur)
	keep := h.entries[:0]
	for _, e := range h.entries {
		if e.DatasetEpoch() >= floor {
			keep = append(keep, e)
		}
	}
	for i := len(keep); i < len(h.entries); i++ {
		h.entries[i] = nil
	}
	h.entries = keep
	ks := h.stamps[:0]
	for _, st := range h.stamps {
		if st.epoch >= floor {
			ks = append(ks, st)
		}
	}
	h.stamps = ks
}

// retainPredecessor parks prev in the spine as its successor (at curEpoch)
// takes over, then trims to the retention window.
func (h *history) retainPredecessor(prev *Session, curEpoch int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stampLocked(prev.DatasetEpoch(), prev.created)
	h.insertLocked(prev)
	h.trimLocked(curEpoch)
}

// HistoryFloor returns the lowest epoch AsOf can address: current minus the
// retention window, clamped at the flat origin.
func (s *Session) HistoryFloor() int {
	if s.hist == nil {
		return s.DatasetEpoch()
	}
	return s.hist.floorFor(s.DatasetEpoch())
}

// RetainedEpochs returns how many historical epochs are addressable behind
// the current one — the /metrics retention gauge.
func (s *Session) RetainedEpochs() int { return s.DatasetEpoch() - s.HistoryFloor() }

// HistMaterializations returns how many historical epochs this chain has
// lazily rebuilt for as-of queries.
func (s *Session) HistMaterializations() int64 {
	if s.hist == nil {
		return 0
	}
	return s.hist.mats.Load()
}

// AsOf returns the session as it stood at the given epoch: the receiver for
// the current epoch, a retained predecessor when one is in the window, and
// otherwise a lazily materialized reconstruction — depen.Solve advanced
// forward from the nearest retained ancestor (or the log replayed from the
// flat origin), the exact pass sequence the live chain ran, so the result
// is bit-identical to the session that served that epoch. Epochs below the
// retention floor (Config.RetainEpochs) or above the current epoch are an
// error. Safe for concurrent use; materialized epochs are cached in the
// spine so repeated as-of queries pay once.
func (s *Session) AsOf(epoch int) (*Session, error) {
	cur := s.DatasetEpoch()
	if epoch == cur {
		return s, nil
	}
	if epoch < 0 || epoch > cur {
		return nil, fmt.Errorf("session: as-of epoch %d out of range [0, %d]", epoch, cur)
	}
	h := s.hist
	if h == nil {
		return nil, fmt.Errorf("session: no epoch history")
	}
	if floor := h.floorFor(cur); epoch < floor {
		return nil, fmt.Errorf("session: epoch %d pruned (retention floor %d, current %d)", epoch, floor, cur)
	}
	h.mu.Lock()
	if hs, ok := h.lookupLocked(epoch); ok {
		h.mu.Unlock()
		return hs, nil
	}
	// Nearest retained ancestor strictly below the target: its solve state
	// seeds the forward replay.
	var anc *Session
	for _, e := range h.entries {
		if e.DatasetEpoch() >= epoch {
			break
		}
		anc = e
	}
	h.mu.Unlock()

	hs, err := s.materializeEpoch(epoch, anc)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	if cached, ok := h.lookupLocked(epoch); ok {
		// A concurrent AsOf materialized the same epoch first; serve the
		// cached one so every caller shares a single reconstruction.
		h.mu.Unlock()
		return cached, nil
	}
	h.insertLocked(hs)
	h.mu.Unlock()
	h.mats.Add(1)
	return hs, nil
}

// materializeEpoch rebuilds the serving session for epoch. With a retained
// ancestor its dense state advances one batch at a time; without one
// depen.Solve replays the log from the flat origin — either way the
// identical pass sequence a live session ran through that epoch.
func (s *Session) materializeEpoch(epoch int, anc *Session) (*Session, error) {
	target, err := s.d.At(epoch)
	if err != nil {
		return nil, err
	}
	var st *depen.State // nil replays target's log from the flat origin
	if anc != nil {
		st = anc.st
		for k := anc.DatasetEpoch() + 1; k < epoch; k++ {
			dk, err := s.d.At(k)
			if err != nil {
				return nil, err
			}
			if st, err = depen.Solve(dk, st, s.cfg.Depen); err != nil {
				return nil, err
			}
		}
	}
	if st, err = depen.Solve(target, st, s.cfg.Depen); err != nil {
		return nil, err
	}
	hs, err := newSession(target, s.cfg, st)
	if err != nil {
		return nil, err
	}
	// Share the spine so a historical session can itself answer AsOf; its
	// created time is reconstruction time and deliberately takes no part in
	// timestamp resolution (stamps do).
	hs.hist = s.hist
	return hs, nil
}

// AsOfTime resolves a wall-clock instant to the epoch that was serving then
// and returns its session: the greatest epoch whose birth time is at or
// before t, among the current epoch and the retained window. Epochs
// restored from a snapshot's log have no birth time in this process and
// resolve by epoch number only; an instant before every known birth time is
// an error.
func (s *Session) AsOfTime(t time.Time) (*Session, error) {
	if !s.created.After(t) {
		return s, nil
	}
	h := s.hist
	if h == nil {
		return nil, fmt.Errorf("session: no epoch history")
	}
	best := -1
	h.mu.Lock()
	for _, st := range h.stamps {
		if !st.created.After(t) && st.epoch > best {
			best = st.epoch
		}
	}
	h.mu.Unlock()
	if best < 0 {
		return nil, fmt.Errorf("session: no retained epoch as of %s", t.UTC().Format(time.RFC3339))
	}
	return s.AsOf(best)
}

// EpochInfo describes one addressable epoch for history listings.
type EpochInfo struct {
	Epoch int
	// Created is when the epoch became current, zero when it predates this
	// process (restored from a snapshot's log).
	Created time.Time
	// Resident reports whether a serving session for the epoch is retained
	// in memory right now (the current epoch always is).
	Resident bool
	Current  bool
}

// History lists every epoch AsOf can currently address, ascending, from the
// retention floor to the current epoch.
func (s *Session) History() []EpochInfo {
	cur := s.DatasetEpoch()
	floor := s.HistoryFloor()
	out := make([]EpochInfo, 0, cur-floor+1)
	var resident map[int]bool
	stamps := map[int]time.Time{}
	if s.hist != nil {
		resident = map[int]bool{}
		s.hist.mu.Lock()
		for _, e := range s.hist.entries {
			resident[e.DatasetEpoch()] = true
		}
		for _, st := range s.hist.stamps {
			stamps[st.epoch] = st.created
		}
		s.hist.mu.Unlock()
	}
	for e := floor; e <= cur; e++ {
		info := EpochInfo{Epoch: e, Created: stamps[e], Resident: resident[e]}
		if e == cur {
			info.Created = s.created
			info.Resident = true
			info.Current = true
		}
		out = append(out, info)
	}
	return out
}

// AccuracyOf returns one source's discovered accuracy at this session's
// epoch, reading the dense vector through the compiled index.
func (s *Session) AccuracyOf(src model.SourceID) (float64, bool) {
	i, ok := s.d.Compiled().SourceIndex(src)
	if !ok {
		return 0, false
	}
	return s.acc[i], true
}

// PairProbs returns the posterior that a and b are dependent at this
// session's epoch, and its two directions — P(a copies b), P(b copies a);
// zeros for an unanalysed pair or a source the epoch does not have. It reads
// one pair record of the state, so a trajectory over retained epochs builds
// no Result view.
func (s *Session) PairProbs(a, b model.SourceID) (dep, ab, ba float64) {
	ab, ba = s.st.CopyProbs(a, b)
	return ab + ba, ab, ba
}
