// Replica bootstrap by snapshot streaming: the shard side of the fleet's
// rebalance path.
//
// GET /v1/{dataset}/snapshot streams the world's snapshot container bytes — for a
// mapped session that is literally the bytes on disk, zero rebuild — with a
// whole-stream CRC32 in the X-Snapshot-CRC32 header. The container's own
// section-table CRC covers the header and layout, but section payloads are
// deliberately unchecksummed (they are served straight from the mapping), so
// the transfer header is what catches a bit flip inside a payload in
// transit.
//
// POST /v1/{dataset}/adopt?from=URL is the pull side: fetch the stream into
// a temporary file, validate it end to end (transfer CRC, container
// structure, fingerprint — the same gauntlet a local load runs), and only
// then rename it into the serving directory and register it with the lazy
// registry. Every validation failure reports snapio.ErrCorrupt and leaves
// the registry and directory untouched: a partial or corrupted world is
// never observable, which is the invariant the corruption suite pins.
package server

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"

	"sourcecurrents/internal/session"
	"sourcecurrents/internal/snapio"
)

// SnapshotCRCHeader carries the CRC32 (IEEE, decimal) of the full snapshot
// stream, computed by the serving shard and verified by the adopting one.
const SnapshotCRCHeader = "X-Snapshot-CRC32"

// maxSnapshotStream caps an adopted snapshot fetch (1 GiB — far above any
// world this system builds, low enough to stop a runaway peer).
const maxSnapshotStream = 1 << 30

// ErrAlreadyRegistered reports an adopt for a dataset this shard already
// serves. Adoption is idempotent at the fleet layer: the router's rebalancer
// may retry a pull that already landed, so the HTTP handler answers it 200.
var ErrAlreadyRegistered = errors.New("server: dataset already registered")

// adoptClient fetches snapshot streams. No overall timeout: snapshots can
// be large and the transfer is bounded by maxSnapshotStream, not time.
var adoptClient = &http.Client{}

// AdoptFromURL fetches a snapshot stream, validates it, installs it as
// <dir>/<name>.snap, and registers it with the registry (lazily — the world
// maps on its first request, already marked verified). Returns the cause
// wrapped in snapio.ErrCorrupt for any integrity failure; a dataset already
// registered under name is ErrAlreadyRegistered (adoption is idempotent at
// the fleet layer — the caller treats it as success).
func AdoptFromURL(reg *Registry, name, from, dir string, cfg session.Config, client *http.Client) error {
	_, err := adoptFromURL(reg, name, from, dir, cfg, client, false, nil)
	return err
}

// AdoptReplaceFromURL is AdoptFromURL in replace mode: an already-registered
// dataset is overwritten with the fetched snapshot — session, epoch, and
// disk file swap together — provided the fetched epoch is ahead of the
// current one. This is the repair loop's convergence primitive: a replica
// that missed append fan-outs re-streams the primary's world over its own.
// The returned status is "adopted" (fresh), "replaced" (overwritten), or
// "current" (the fetched snapshot was not newer; nothing changed).
//
// The epoch comparison and the install are one atomic step
// (Registry.Replace holds the entry's update and load mutexes across
// both), so a replace can never shadow an epoch a concurrent append just
// produced on the old chain. onReplaced, when non-nil, runs inside that
// critical section just before the new chain becomes visible — the
// server's hook for flushing cached answers keyed to the replaced chain.
func AdoptReplaceFromURL(reg *Registry, name, from, dir string, cfg session.Config, client *http.Client, onReplaced func()) (string, error) {
	return adoptFromURL(reg, name, from, dir, cfg, client, true, onReplaced)
}

func adoptFromURL(reg *Registry, name, from, dir string, cfg session.Config, client *http.Client, replace bool, onReplaced func()) (string, error) {
	if !validName(name) {
		return "", fmt.Errorf("%w: invalid dataset name %q", ErrBadRequest, name)
	}
	if dir == "" {
		return "", fmt.Errorf("%w: adoption disabled (no adopt directory configured)", ErrBadRequest)
	}
	exists := reg.Has(name)
	if exists && !replace {
		return "", fmt.Errorf("%w: %q", ErrAlreadyRegistered, name)
	}
	if client == nil {
		client = adoptClient
	}
	resp, err := client.Get(from)
	if err != nil {
		return "", fmt.Errorf("server: adopt %q: fetch %s: %w", name, from, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return "", fmt.Errorf("server: adopt %q: %s answered %d: %s", name, from, resp.StatusCode, body)
	}

	tmp, err := os.CreateTemp(dir, ".adopt-*")
	if err != nil {
		return "", fmt.Errorf("server: adopt %q: %w", name, err)
	}
	tmpPath := tmp.Name()
	// The temp file is removed on every exit path; after the successful
	// rename below the remove is a harmless ENOENT.
	defer os.Remove(tmpPath)

	crc := crc32.NewIEEE()
	n, err := io.Copy(io.MultiWriter(tmp, crc), io.LimitReader(resp.Body, maxSnapshotStream))
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("server: adopt %q: stream: %w", name, err)
	}
	if n >= maxSnapshotStream {
		return "", fmt.Errorf("server: adopt %q: %w: stream exceeds %d bytes", name, snapio.ErrCorrupt, int64(maxSnapshotStream))
	}
	if want := resp.Header.Get(SnapshotCRCHeader); want != "" {
		got := strconv.FormatUint(uint64(crc.Sum32()), 10)
		if got != want {
			return "", fmt.Errorf("server: adopt %q: %w: transfer CRC mismatch (got %s, want %s)",
				name, snapio.ErrCorrupt, got, want)
		}
	}

	// Validate exactly as a cold start would: map the container, build every
	// typed view, check the fingerprint. Anything short of a fully servable
	// world is corruption — truncations and bad magic keep their own
	// sentinels in the chain, but errors.Is(err, snapio.ErrCorrupt) holds for
	// all of them.
	s, err := session.LoadSnapshotFile(tmpPath, cfg)
	if err != nil {
		return "", fmt.Errorf("server: adopt %q: %w (%w)", name, snapio.ErrCorrupt, err)
	}

	if exists {
		// Replace mode over a live world: only move forward. Epoch gaps in
		// this fleet are always a lagging strict prefix (every placement
		// member applies the same fan-out batches in order), so "not newer"
		// means there is nothing to heal. The epoch check lives inside
		// Replace, atomically with the install — and the rename runs in its
		// commit slot, so the disk file is only overwritten once the swap is
		// certain to land and the serving session and snapshot swap together.
		final := filepath.Join(dir, name+".snap")
		_, err := reg.Replace(name, s, final, cfg, func() error {
			if err := os.Rename(tmpPath, final); err != nil {
				return err
			}
			if onReplaced != nil {
				onReplaced()
			}
			return nil
		})
		switch {
		case errors.Is(err, ErrReplaceStale):
			_ = s.Close()
			return "current", nil
		case err != nil:
			_ = s.Close()
			return "", fmt.Errorf("server: adopt %q: %w", name, err)
		}
		return "replaced", nil
	}

	epoch := uint64(s.DatasetEpoch())
	_ = s.Close()
	final := filepath.Join(dir, name+".snap")
	if err := os.Rename(tmpPath, final); err != nil {
		return "", fmt.Errorf("server: adopt %q: %w", name, err)
	}
	if err := reg.RegisterLazy(name, final, cfg); err != nil {
		// Lost a race with a concurrent adopt or register; the file stays (it
		// is valid and at its final name) but this call did not win.
		return "", fmt.Errorf("%w: %q: %v", ErrAlreadyRegistered, name, err)
	}
	reg.markVerified(name)
	reg.recordEpoch(name, epoch)
	return "adopted", nil
}

// Has reports whether name is registered (without loading anything).
func (r *Registry) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.entries[name]
	return ok
}
