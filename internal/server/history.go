// Time-travel serving: as-of resolution, the epoch history listing, and
// the trajectory endpoint.
//
// Epochs are immutable worlds, so serving one that is no longer current is
// the same read-only dispatch as serving the current one — the only new
// machinery is resolution (?as_of= → a retained session via session.AsOf)
// and navigation (GET /history lists what is addressable, GET /trajectory
// walks a value across the addressable range). Historical responses cache
// under their own epoch key and never go stale.
package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sourcecurrents/internal/model"
	"sourcecurrents/internal/session"
	"sourcecurrents/internal/temporal"
)

// ResolveAsOf resolves an as_of specifier against a session's epoch
// history: a bare integer is an epoch number, "@<seconds>" a Unix
// timestamp, and anything else an RFC3339 instant. It returns the session
// serving that epoch together with the epoch itself (the cache-key
// generation). Unparseable specifiers and epochs outside the retention
// window are request errors (400).
func ResolveAsOf(sess *session.Session, spec string) (*session.Session, uint64, error) {
	if epoch, err := strconv.Atoi(spec); err == nil {
		hs, err := sess.AsOf(epoch)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: as_of: %v", ErrBadRequest, err)
		}
		return hs, uint64(epoch), nil
	}
	var t time.Time
	if secs, ok := strings.CutPrefix(spec, "@"); ok {
		n, err := strconv.ParseInt(secs, 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: as_of: bad unix timestamp %q", ErrBadRequest, spec)
		}
		t = time.Unix(n, 0)
	} else {
		var err error
		if t, err = time.Parse(time.RFC3339, spec); err != nil {
			return nil, 0, fmt.Errorf("%w: as_of: want an epoch number, @unixseconds, or RFC3339 instant, got %q", ErrBadRequest, spec)
		}
	}
	hs, err := sess.AsOfTime(t)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: as_of: %v", ErrBadRequest, err)
	}
	return hs, uint64(hs.DatasetEpoch()), nil
}

// EpochJSON is one addressable epoch in the /history listing.
type EpochJSON struct {
	Epoch int `json:"epoch"`
	// Created is when the epoch became current, RFC3339; absent when the
	// epoch predates this process (restored from a snapshot's log).
	Created string `json:"created,omitempty"`
	// Resident reports whether a serving session for the epoch is in
	// memory right now; non-resident epochs materialize lazily on first
	// as_of touch.
	Resident bool `json:"resident"`
	Current  bool `json:"current,omitempty"`
}

// HistoryResponse is the /history payload: the dataset's addressable epoch
// range, oldest first.
type HistoryResponse struct {
	Dataset string      `json:"dataset"`
	Current int         `json:"current"`
	Floor   int         `json:"floor"`
	Epochs  []EpochJSON `json:"epochs"`
}

// BuildHistoryResponse renders a session's retained epoch spine.
func BuildHistoryResponse(name string, sess *session.Session) HistoryResponse {
	infos := sess.History()
	out := HistoryResponse{
		Dataset: name,
		Current: sess.DatasetEpoch(),
		Floor:   sess.HistoryFloor(),
		Epochs:  make([]EpochJSON, len(infos)),
	}
	for i, info := range infos {
		ej := EpochJSON{Epoch: info.Epoch, Resident: info.Resident, Current: info.Current}
		if !info.Created.IsZero() {
			ej.Created = info.Created.UTC().Format(time.RFC3339)
		}
		out.Epochs[i] = ej
	}
	return out
}

// TrajectoryPointJSON is one epoch's reading along a trajectory. Source
// mode fills Accuracy; pair mode fills the dependence posterior and both
// copy directions. Pointers keep true zeros distinguishable from an absent
// mode.
type TrajectoryPointJSON struct {
	Epoch    int      `json:"epoch"`
	Accuracy *float64 `json:"accuracy,omitempty"`
	// Dependence is P(A~B); CopyForward P(A copies B), CopyReverse the
	// other direction.
	Dependence  *float64 `json:"dependence,omitempty"`
	CopyForward *float64 `json:"copy_forward,omitempty"`
	CopyReverse *float64 `json:"copy_reverse,omitempty"`
}

// WindowJSON is one sliding-window verdict from temporal.DetectOverWindows.
type WindowJSON struct {
	Start    int64   `json:"start"`
	End      int64   `json:"end"`
	Prob     float64 `json:"prob"`
	Analyzed bool    `json:"analyzed"`
	// A and B name the pair in source mode, where windows from every pair
	// involving the source are merged; absent in pair mode.
	A string `json:"a,omitempty"`
	B string `json:"b,omitempty"`
}

// TrajectoryResponse is the /trajectory payload: how a source's accuracy or
// a pair's copy verdict evolved across the retained epochs, optionally with
// the per-window temporal verdicts over the current dataset's time range.
type TrajectoryResponse struct {
	Dataset string `json:"dataset"`
	Source  string `json:"source,omitempty"`
	A       string `json:"a,omitempty"`
	B       string `json:"b,omitempty"`
	// Points walks the addressable epochs oldest-first. Source-mode points
	// begin at the epoch the source first appears.
	Points  []TrajectoryPointJSON `json:"points"`
	Windows []WindowJSON          `json:"windows,omitempty"`
}

// handleTrajectory serves GET /v1/{ds}/trajectory?source=S or ?pair=A,B,
// plus &windows=1 for the sliding-window temporal verdicts.
func (s *Server) handleTrajectory(r *http.Request, name string, sess *session.Session) response {
	q := r.URL.Query()
	src, pair := q.Get("source"), q.Get("pair")
	resp, err := ExecTrajectory(sess, name, src, pair, q.Get("windows") != "")
	if err != nil {
		return errResponse(err)
	}
	return jsonResponse(http.StatusOK, resp)
}

// ExecTrajectory computes a trajectory over the session's retained epoch
// range. Exactly one of source/pair selects the mode; includeWindows adds
// temporal.DetectOverWindows verdicts computed over the current dataset
// (an error when it carries no timestamped claims).
func ExecTrajectory(sess *session.Session, name, source, pair string, includeWindows bool) (*TrajectoryResponse, error) {
	if (source == "") == (pair == "") {
		return nil, fmt.Errorf("%w: trajectory: want exactly one of ?source=S or ?pair=A,B", ErrBadRequest)
	}
	resp := &TrajectoryResponse{Dataset: name}
	var a, b model.SourceID
	if pair != "" {
		as, bs, ok := strings.Cut(pair, ",")
		if !ok || as == "" || bs == "" || as == bs {
			return nil, fmt.Errorf("%w: trajectory: ?pair wants two distinct comma-separated sources, got %q", ErrBadRequest, pair)
		}
		a, b = model.SourceID(as), model.SourceID(bs)
		resp.A, resp.B = as, bs
	} else {
		resp.Source = source
	}

	for _, info := range sess.History() {
		hs, err := sess.AsOf(info.Epoch)
		if err != nil {
			// The window can slide under a concurrent append; skip epochs
			// that were pruned between listing and resolution.
			continue
		}
		pt := TrajectoryPointJSON{Epoch: info.Epoch}
		if source != "" {
			acc, ok := hs.AccuracyOf(model.SourceID(source))
			if !ok {
				continue // source not yet present at this epoch
			}
			pt.Accuracy = &acc
		} else {
			d, cf, cr := hs.PairProbs(a, b)
			pt.Dependence, pt.CopyForward, pt.CopyReverse = &d, &cf, &cr
		}
		resp.Points = append(resp.Points, pt)
	}

	if includeWindows {
		wres, err := temporal.DetectOverWindows(sess.Dataset(), temporal.DefaultWindowedConfig())
		if err != nil {
			return nil, fmt.Errorf("%w: trajectory windows: %v", ErrBadRequest, err)
		}
		if pair != "" {
			if h, ok := wres.History(a, b); ok {
				for _, wv := range h.Windows {
					resp.Windows = append(resp.Windows, WindowJSON{
						Start: int64(wv.Start), End: int64(wv.End),
						Prob: wv.Prob, Analyzed: wv.Analyzed,
					})
				}
			}
		} else {
			srcID := model.SourceID(source)
			for _, h := range wres.Histories {
				if h.Pair.A != srcID && h.Pair.B != srcID {
					continue
				}
				for _, wv := range h.Windows {
					resp.Windows = append(resp.Windows, WindowJSON{
						Start: int64(wv.Start), End: int64(wv.End),
						Prob: wv.Prob, Analyzed: wv.Analyzed,
						A: string(h.Pair.A), B: string(h.Pair.B),
					})
				}
			}
		}
	}
	return resp, nil
}
