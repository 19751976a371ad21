// Anti-entropy repair: the router's convergence backstop.
//
// A replica can fall behind its primary whenever an append fan-out fails —
// the primary advanced an epoch the replica never saw. proxyWrite enqueues
// such failures immediately; a periodic scan additionally compares every
// placement member's per-dataset epoch (reported on /readyz and collected
// by the prober) against the placement's max, so lag is caught even when
// the fan-out failure happened under a previous router. Repair brings the
// lagging shard to the freshest holder's epoch the way the fan-out does:
// the holder's delta since the shard's own epoch, streamed into the shard's
// conditional append, however many batches it spans. The replica keeps its
// world — its answer cache and its retained epochs — and no batch is solved
// twice. Repeated failures back off exponentially. Each scan republishes
// the currents_replica_lag gauge wholesale, so a healed replica's return to
// 0 is observable.
//
// The prober's epochs are a cache, and a scan that lands between a
// primary's append and its replica's sees a gap that closes by itself. So a
// task is only a suspicion: repairOne asks the shards again before it sends
// a delta, and a repair counts only when the target's conditional append
// answers 200. A 409 means a fan-out moved the target first; nothing was
// applied and nothing is left to heal.
//
// Divergence in this system is always an epoch gap, never a same-epoch
// fork: every placement member applies the same append batches in the same
// order (router fan-out relays one batch), so a lagging replica is a
// strict prefix of the primary and the delta since its epoch is the
// correct heal. A compacted source still carries the whole claim log, so no
// lag is too long for one.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// maxRepairBackoffShift caps the exponential re-queue delay at
// RepairInterval << maxRepairBackoffShift.
const maxRepairBackoffShift = 5

// repairTask identifies one lagging (dataset, shard) pair.
type repairTask struct {
	dataset string
	target  string
}

// repairState tracks one task's retry schedule.
type repairState struct {
	attempts  int
	notBefore time.Time
}

// repairer owns the pending repair queue and the anti-entropy scan. The
// loop itself runs on the router's lifecycle (startRepair / Close); the
// queue accepts enqueues from any goroutine.
type repairer struct {
	rt *Router

	mu      sync.Mutex
	pending map[repairTask]*repairState
	kick    chan struct{}
}

func newRepairer(rt *Router) *repairer {
	return &repairer{
		rt:      rt,
		pending: make(map[repairTask]*repairState),
		kick:    make(chan struct{}, 1),
	}
}

// enqueue registers a lagging replica for repair. An already-pending task
// keeps its backoff schedule. The scan enqueues from inside the loop; a
// caller outside it follows up with wake.
func (rp *repairer) enqueue(dataset, target string) {
	t := repairTask{dataset: dataset, target: target}
	rp.mu.Lock()
	if _, ok := rp.pending[t]; !ok {
		rp.pending[t] = &repairState{}
	}
	rp.mu.Unlock()
}

// wake nudges the loop to run a round now instead of at the next tick.
func (rp *repairer) wake() {
	select {
	case rp.kick <- struct{}{}:
	default:
	}
}

// startRepair launches the repair loop on the router's waitgroup.
func (rt *Router) startRepair() {
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		t := time.NewTicker(rt.opt.RepairInterval)
		defer t.Stop()
		for {
			select {
			case <-rt.done:
				return
			case <-t.C:
			case <-rt.repair.kick:
			}
			rt.repair.runOnce()
		}
	}()
}

// runOnce performs one repair round: scan for lag, execute due tasks,
// rescan so the published gauge reflects the heals.
func (rp *repairer) runOnce() {
	rp.scanLag()
	if rp.runDue() {
		rp.scanLag()
	}
}

// scanLag compares each cataloged dataset's epochs across its placement,
// publishes the currents_replica_lag gauge wholesale, and enqueues every
// lagging member. Members that lack the dataset entirely are Rebalance's
// job, not repair's; members whose epoch is unknown (never probed) are
// skipped rather than guessed at.
func (rp *repairer) scanLag() {
	rt := rp.rt
	lag := make(map[string]map[string]uint64)
	for _, ds := range rt.catalog() {
		placement := rt.Placement(ds)
		var maxEpoch uint64
		known := make(map[string]uint64, len(placement))
		for _, addr := range placement {
			s := rt.shardFor(addr)
			if s == nil || !s.has(ds) {
				continue
			}
			if e, ok := s.epochOf(ds); ok {
				known[addr] = e
				if e > maxEpoch {
					maxEpoch = e
				}
			}
		}
		if len(known) == 0 {
			continue
		}
		row := make(map[string]uint64, len(known))
		for addr, e := range known {
			row[addr] = maxEpoch - e
			if e < maxEpoch {
				rp.enqueue(ds, addr)
			}
		}
		lag[ds] = row
	}
	rt.met.setLag(lag)
}

// runDue executes every task whose backoff has elapsed; reports whether
// any repair succeeded (so the caller rescans the gauge).
func (rp *repairer) runDue() bool {
	now := time.Now()
	rp.mu.Lock()
	due := make([]repairTask, 0, len(rp.pending))
	for t, st := range rp.pending {
		if !now.Before(st.notBefore) {
			due = append(due, t)
		}
	}
	rp.mu.Unlock()

	healed := false
	for _, t := range due {
		if rp.repairOne(t) {
			healed = true
		}
	}
	return healed
}

// repairOne brings one lagging replica to the freshest holder's epoch with
// the holder's delta since the replica's own. A target that lacks the world
// is given it by adoption, as Rebalance would; one that holds it at an epoch
// no probe has reported is re-queued. Returns true when the target is
// converged (repaired now, found caught up, or moved by a fan-out).
func (rp *repairer) repairOne(t repairTask) bool {
	rt := rp.rt
	placement := rt.Placement(t.dataset)
	onRing := false
	for _, addr := range placement {
		if addr == t.target {
			onRing = true
			break
		}
	}
	if !onRing {
		// The ring moved on; this replica no longer owns the dataset.
		rp.drop(t)
		return false
	}

	// Refresh the placement's epoch reports: the ones that raised this task
	// may predate a fan-out that has landed since.
	for _, addr := range placement {
		if s := rt.shardFor(addr); s != nil {
			rt.probeShard(s)
		}
	}

	// Pick the freshest holder as source, preferring ready shards; note
	// the target's own epoch, the one its delta starts from.
	var src string
	var srcEpoch, targetEpoch uint64
	targetHas, targetKnown := false, false
	for _, addr := range placement {
		s := rt.shardFor(addr)
		if s == nil || !s.has(t.dataset) {
			continue
		}
		e, ok := s.epochOf(t.dataset)
		if addr == t.target {
			targetHas, targetEpoch, targetKnown = true, e, ok
			continue
		}
		if ok && (src == "" || e > srcEpoch || (e == srcEpoch && !rt.isReady(src) && s.ready.Load())) {
			src, srcEpoch = addr, e
		}
	}
	switch {
	case src == "":
		rp.requeue(t, "no source holds a known epoch")
		return false
	case !targetHas:
		if err := rt.adopt(t.target, t.dataset, src); err != nil {
			rt.met.repairErrs.Add(1)
			rp.requeue(t, err.Error())
			return false
		}
		rt.opt.Logf("repair: adopted %s onto %s from %s, which lacked it", t.dataset, t.target, src)
	case !targetKnown:
		rp.requeue(t, "the target's epoch is unknown")
		return false
	case targetEpoch >= srcEpoch:
		rp.drop(t)
		return true
	default:
		ctx, cancel := context.WithTimeout(context.Background(), rt.opt.RepairTimeout)
		resp, body, err := rt.replicateDelta(ctx, t.dataset, src, t.target, targetEpoch)
		cancel()
		if err == nil && resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		}
		if err != nil {
			rt.met.repairErrs.Add(1)
			rp.requeue(t, err.Error())
			return false
		}
		if resp.StatusCode == http.StatusOK {
			rt.met.repairs.Add(1)
			rt.opt.Logf("repair: %s on %s appended the delta from epoch %d to %d from %s",
				t.dataset, t.target, targetEpoch, srcEpoch, src)
		} else {
			// A fan-out moved the target off the epoch the delta applies to
			// while it was in flight: nothing was applied, nothing is left.
			rt.opt.Logf("repair: %s on %s needed no heal (moved past epoch %d)", t.dataset, t.target, targetEpoch)
		}
	}
	rp.drop(t)
	if s := rt.shardFor(t.target); s != nil {
		rt.probeShard(s) // refresh the healed shard's epoch report
	}
	return true
}

func (rp *repairer) drop(t repairTask) {
	rp.mu.Lock()
	delete(rp.pending, t)
	rp.mu.Unlock()
}

// requeue schedules a failed task's next try with capped exponential
// backoff on the repair interval.
func (rp *repairer) requeue(t repairTask, why string) {
	rt := rp.rt
	interval := rt.opt.RepairInterval
	if interval <= 0 {
		interval = DefaultRepairInterval
	}
	rp.mu.Lock()
	st := rp.pending[t]
	if st == nil {
		st = &repairState{}
		rp.pending[t] = st
	}
	st.attempts++
	shift := st.attempts
	if shift > maxRepairBackoffShift {
		shift = maxRepairBackoffShift
	}
	st.notBefore = time.Now().Add(interval << shift)
	rp.mu.Unlock()
	rt.opt.Logf("repair: %s onto %s deferred (attempt %d): %s", t.dataset, t.target, st.attempts, why)
}
