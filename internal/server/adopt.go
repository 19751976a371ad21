// Replica bootstrap by snapshot streaming: the shard side of the fleet's
// rebalance path.
//
// GET /v1/{dataset}/snapshot streams the world's snapshot container as
// Session.WriteSnapshot renders it — for a world booted from a file, that
// file's bytes. The container carries its own integrity: the header CRC
// covers the header and the seal every section, so a bit flipped anywhere in
// transit fails the open on the adopting side. No transfer header is needed.
//
// POST /v1/{dataset}/adopt?from=URL is the pull side: fetch the stream into
// a temporary file, validate it end to end (seal, container structure,
// fingerprint — the same gauntlet a local load runs), and only
// then rename it into the serving directory and register the session the
// validation opened — the file is opened once, into the session a boot would
// build from it, so a stream that would fail a boot fails here. Every
// validation failure reports snapio.ErrCorrupt and leaves the registry and
// directory untouched: a partial or corrupted world is never observable,
// which is the invariant the corruption suite pins.
//
// Adoption has one mode: it gives a shard a world it does not serve. A shard
// that serves a world but lags its primary never re-adopts it; it appends
// the primary's delta since its own epoch (GET delta, POST append), the one
// way a replica advances without solving.
package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"

	"sourcecurrents/internal/session"
	"sourcecurrents/internal/snapio"
)

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

// AdoptFromURL fetches a snapshot stream, validates it by opening it,
// installs it as <dir>/<name>.snap, and registers the opened session, so the
// world is open before its first request. Returns the cause wrapped in
// snapio.ErrCorrupt for any integrity failure; a dataset already registered
// under name is ErrAlreadyRegistered (adoption is idempotent at the fleet
// layer — the caller treats it as success).
func AdoptFromURL(reg *Registry, name, from, dir string, cfg session.Config, client *http.Client) error {
	if !validName(name) {
		return fmt.Errorf("%w: invalid dataset name %q", ErrBadRequest, name)
	}
	if dir == "" {
		return fmt.Errorf("%w: adoption disabled (no adopt directory configured)", ErrBadRequest)
	}
	if reg.Has(name) {
		return fmt.Errorf("%w: %q", ErrAlreadyRegistered, name)
	}
	if client == nil {
		client = adoptClient
	}
	resp, err := client.Get(from)
	if err != nil {
		return fmt.Errorf("server: adopt %q: fetch %s: %w", name, from, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("server: adopt %q: %s answered %d: %s", name, from, resp.StatusCode, body)
	}

	tmp, err := os.CreateTemp(dir, ".adopt-*")
	if err != nil {
		return fmt.Errorf("server: adopt %q: %w", name, err)
	}
	tmpPath := tmp.Name()
	// The temp file is removed on every exit path; after the successful
	// rename below the remove is a harmless ENOENT.
	defer os.Remove(tmpPath)

	n, err := io.Copy(tmp, io.LimitReader(resp.Body, maxSnapshotStream))
	if errors.Is(err, io.ErrUnexpectedEOF) {
		// The body ended short of its declared length: a torn transfer is bad
		// upstream bytes, like a container cut short.
		err = fmt.Errorf("%w: %w", snapio.ErrCorrupt, err)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("server: adopt %q: stream: %w", name, err)
	}
	if n >= maxSnapshotStream {
		return fmt.Errorf("server: adopt %q: %w: stream exceeds %d bytes", name, snapio.ErrCorrupt, int64(maxSnapshotStream))
	}
	// Validate exactly as a boot would: read the container and check its
	// seal, build the dataset, state and planner, check the fingerprint.
	// Anything short of a fully servable world is corruption — truncations,
	// checksums and bad magic keep their own sentinels in the chain, but
	// errors.Is(err, snapio.ErrCorrupt) holds for all of them. The session
	// holds its own copy of the bytes, not the file.
	s, err := session.LoadSnapshotFile(tmpPath, cfg)
	if err != nil {
		return fmt.Errorf("server: adopt %q: %w (%w)", name, snapio.ErrCorrupt, err)
	}
	final := filepath.Join(dir, name+".snap")
	if err := os.Rename(tmpPath, final); err != nil {
		return fmt.Errorf("server: adopt %q: %w", name, err)
	}
	if err := reg.Register(name, s); err != nil {
		// Lost a race with a concurrent adopt or register; the file stays (it
		// is valid and at its final name) but this call did not win.
		return fmt.Errorf("%w: %q: %v", ErrAlreadyRegistered, name, err)
	}
	return nil
}

// Has reports whether name is registered.
func (r *Registry) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.entries[name]
	return ok
}
