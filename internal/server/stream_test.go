package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sourcecurrents/internal/session"
	"sourcecurrents/internal/snapio"
)

// snapshotBytes renders a session's snapshot container into memory.
func snapshotBytes(t testing.TB, s *session.Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sectionBoundaries parses the container header and returns every
// interesting truncation point: the end of the header/table, each section's
// start, and each section's end. Truncating the stream at any of these
// (except the very last byte of the file) destroys part of the world.
func sectionBoundaries(t testing.TB, b []byte) []int {
	t.Helper()
	const magicLen = 8
	const hdrFixed = magicLen + 4 + 4 + 4 + 4 // magic, version, order, count, seal
	const entryLen = 24
	if len(b) < hdrFixed+4 {
		t.Fatalf("snapshot too short to parse: %d bytes", len(b))
	}
	if string(b[:magicLen]) != session.SnapshotMagic {
		t.Fatalf("magic = %q", b[:magicLen])
	}
	count := int(binary.LittleEndian.Uint32(b[magicLen+8:]))
	if count == 0 {
		t.Fatal("snapshot declares zero sections")
	}
	hdrLen := hdrFixed + entryLen*count + 4
	bounds := []int{hdrLen}
	for i := 0; i < count; i++ {
		e := b[hdrFixed+entryLen*i:]
		off := int(binary.LittleEndian.Uint64(e[8:]))
		length := int(binary.LittleEndian.Uint64(e[16:]))
		bounds = append(bounds, off, off+length)
	}
	return bounds
}

// snapshotUpstream serves body as a snapshot stream: declaring its length,
// or chunked with no length declared, as a relay streaming through sends it.
func snapshotUpstream(t testing.TB, body []byte, chunked bool) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		if !chunked {
			w.Header().Set("Content-Length", fmt.Sprint(len(body)))
		}
		w.WriteHeader(http.StatusOK)
		if chunked {
			w.(http.Flusher).Flush()
		}
		_, _ = w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// tornUpstream declares body's whole length and closes the connection after
// its first cut bytes.
func tornUpstream(t testing.TB, body []byte, cut int) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", fmt.Sprint(len(body)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body[:cut])
	}))
	t.Cleanup(ts.Close)
	return ts
}

// assertCleanReject asserts an adopt failure left no trace: the dataset is
// not registered, no .snap landed, and no temp file leaked.
func assertCleanReject(t *testing.T, reg *Registry, dir, name string, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("adopt accepted a corrupted stream")
	}
	if !errors.Is(err, snapio.ErrCorrupt) {
		t.Fatalf("adopt error = %v, want errors.Is(_, snapio.ErrCorrupt)", err)
	}
	if reg.Has(name) {
		t.Fatalf("corrupted adopt registered %q", name)
	}
	entries, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, e := range entries {
		t.Fatalf("adopt reject left %q in the serving dir", e.Name())
	}
}

// The snapshot endpoint must stream the container WriteSnapshot renders —
// for a world booted from a file, that file's bytes — and the container's own
// seal must hold over the body: the stream carries its integrity with it.
func TestSnapshotEndpointCRC(t *testing.T) {
	// Heap-built session: testServer registers in-memory sessions.
	ts, sessions := testServer(t)
	resp, body := get(t, ts.URL+"/v1/alpha/snapshot")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if _, err := snapio.OpenContainer(body, session.SnapshotMagic, session.SnapshotVersion); err != nil {
		t.Fatalf("the streamed container does not open: %v", err)
	}
	if _, err := session.LoadSnapshot(bytes.NewReader(body), session.DefaultConfig()); err != nil {
		t.Fatalf("the streamed snapshot does not load: %v", err)
	}
	if !bytes.Equal(body, snapshotBytes(t, sessions["alpha"])) {
		t.Fatal("streamed bytes differ from WriteSnapshot output")
	}

	// A booted world: boot a directory holding the same world's file and
	// stream it again — the bytes must be the file's bytes exactly.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "alpha.snap"), body, 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := LoadDir(dir, session.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(New(reg, Options{}))
	defer ts2.Close()
	resp2, body2 := get(t, ts2.URL+"/v1/alpha/snapshot")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("booted status = %d", resp2.StatusCode)
	}
	if !bytes.Equal(body2, body) {
		t.Fatal("the booted world's stream differs from its file")
	}
}

// The happy path end to end: adopt a streamed snapshot and serve answers
// byte-identical to the source shard's.
func TestAdoptGolden(t *testing.T) {
	src, sessions := testServer(t)
	dir := t.TempDir()
	reg := NewRegistry()
	err := AdoptFromURL(reg, "alpha", src.URL+"/v1/alpha/snapshot", dir, session.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Has("alpha") {
		t.Fatal("adopted dataset not registered")
	}
	installed, err := os.ReadFile(filepath.Join(dir, "alpha.snap"))
	if err != nil {
		t.Fatalf("adopted snapshot not installed: %v", err)
	}
	// Adopt registers the session its validation opened, which is the world
	// the installed file holds.
	if sess, _, err := reg.Current("alpha"); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(snapshotBytes(t, sess), installed) {
		t.Fatal("the adopted session is not the installed file's world")
	}

	adopted := httptest.NewServer(New(reg, Options{AdoptDir: dir, SessionCfg: session.DefaultConfig()}))
	defer adopted.Close()
	req := answerBody(t, sessions["alpha"], 5)
	_, want := post(t, src.URL+"/v1/alpha/answer", req)
	resp, got := post(t, adopted.URL+"/v1/alpha/answer", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adopted answer status = %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("adopted answers diverge from source:\n%s\n%s", got, want)
	}

	// Idempotence: a second adopt of the same dataset is ErrAlreadyRegistered
	// to the caller, 200 {"status":"exists"} over HTTP.
	err = AdoptFromURL(reg, "alpha", src.URL+"/v1/alpha/snapshot", dir, session.DefaultConfig(), nil)
	if !errors.Is(err, ErrAlreadyRegistered) {
		t.Fatalf("second adopt error = %v, want ErrAlreadyRegistered", err)
	}
	resp, body := post(t, adopted.URL+"/v1/alpha/adopt?from="+src.URL+"/v1/alpha/snapshot", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP re-adopt status = %d: %s", resp.StatusCode, body)
	}
	var ar AdoptResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Status != "exists" {
		t.Fatalf("HTTP re-adopt status field = %q, want \"exists\"", ar.Status)
	}
}

// fixedCuts is a grid of truncation offsets independent of the container
// layout, so that a format change does not rename the cases cut at them:
// the section boundaries of earlier layouts — two of the test's 40-object
// world and one of its 90-object world from before the dataset's checksum
// section was deleted — a start and an end per section (a boundary shared by
// empty sections recurs). Every one lies inside the current container's
// sections.
var fixedCuts = []int{
	340, 344, 628, 632, 652, 656, 796, 800, 820, 824, 1180, 1184, 1204, 1208,
	1568, 1568, 1592, 1592, 1871, 1872, 1908, 1912, 2636, 2640, 2848, 2848,
	2872, 2872, 2884, 2888, 2908, 2912, 3512, 3512, 4168, 4168, 4192, 4192,
	5448, 5448, 5472, 5472, 6392, 6392, 6728, 6728, 6752, 6752, 6764, 6768,
	6768, 6768, 6768, 6768, 6768, 6768, 6768, 6768, 6768, 6768, 6788, 6792,
	6792, 6792, 6792, 6792, 6792, 6792, 6792, 6792, 6792, 6792, 7435, 7440,
	7459, 7464, 7476, 7480, 7500, 7504, 7804, 7808, 7828, 7832, 8192, 8192,
	8216, 8216, 8256, 8256, 8768, 8768, 8785, 8792, 9259, 9264, 9272, 9272,
	9496, 9496, 10564, 10568, 10776, 10776, 12056, 12056, 12056, 12056, 12120,
	12120, 12152, 12152, 12152, 12152, 12156, 12160, 12224, 12224, 12588,
	12592, 12880, 12880, 13960, 13960, 14448, 14448, 15528, 15528,
}

// Truncate the stream at the fixed grid and at every section boundary, and
// serve the cut bytes as a whole response: chunked, as a relay that stopped
// early sends them, and with their length declared, as a source whose file is
// short does. The container ends at its last section's last byte, so every cut
// destroys part of the world, and there is no transfer checksum: the
// container's own header and seal must reject each one. A third mode declares
// the whole container's length and closes after the cut, as a source that
// dies mid-transfer does: the body ends short of its length. Every way:
// ErrCorrupt, nothing registered, nothing left on disk.
func TestAdoptRejectsTruncation(t *testing.T) {
	full := snapshotBytes(t, testSession(t, 11, 90))
	bounds := sectionBoundaries(t, full)
	if maxEnd := slices.Max(bounds); maxEnd != len(full) {
		t.Fatalf("the container's last section ends at %d of its %d bytes", maxEnd, len(full))
	}
	if fixedCuts[len(fixedCuts)-1] >= len(full) {
		t.Fatalf("the %d-byte container ends before the fixed grid does", len(full))
	}
	for _, cut := range append(fixedCuts, bounds...) {
		if cut >= len(full) {
			continue
		}
		for _, mode := range []struct {
			name    string
			chunked bool
			torn    bool
		}{{"midtransfer", true, false}, {"badsource", false, false}, {"torn", false, true}} {
			t.Run(fmt.Sprintf("%s_cut_%d", mode.name, cut), func(t *testing.T) {
				var up *httptest.Server
				if mode.torn {
					up = tornUpstream(t, full, cut)
				} else {
					up = snapshotUpstream(t, full[:cut], mode.chunked)
				}
				dir := t.TempDir()
				reg := NewRegistry()
				err := AdoptFromURL(reg, "w", up.URL, dir, session.DefaultConfig(), nil)
				assertCleanReject(t, reg, dir, "w", err)
			})
		}
	}
}

// Flip single bytes across the container — in the magic, the section table,
// deep inside section payloads (at fixed offsets, so the case names do not
// move with the layout) and the final byte — with the upstream sending no
// checksum of its own. The header CRC covers the header and the seal every
// section, so every flip must be rejected cleanly by the open alone.
func TestAdoptRejectsBitFlips(t *testing.T) {
	full := snapshotBytes(t, testSession(t, 11, 170))
	positions := map[string]int{"final": len(full) - 1}
	for _, pos := range []int{
		2,                          // magic
		30,                         // section table
		12012, 18018, 24023, 27039, // inside payloads
	} {
		positions[fmt.Sprint(pos)] = pos
	}
	if len(full) <= 27039 {
		t.Fatalf("the %d-byte container ends before the deepest flip", len(full))
	}
	for name, pos := range positions {
		t.Run("flip_"+name, func(t *testing.T) {
			flipped := append([]byte(nil), full...)
			flipped[pos] ^= 0x40
			up := snapshotUpstream(t, flipped, false)
			dir := t.TempDir()
			reg := NewRegistry()
			err := AdoptFromURL(reg, "w", up.URL, dir, session.DefaultConfig(), nil)
			assertCleanReject(t, reg, dir, "w", err)
			if pos >= 30 && !errors.Is(err, snapio.ErrChecksum) {
				t.Fatalf("flip at %d: err = %v, want ErrChecksum", pos, err)
			}
		})
	}
}

// A source that serves structural garbage behind a valid magic cannot sneak
// it past adopt: the full load validation runs on every stream.
func TestAdoptRejectsGarbageWithoutCRC(t *testing.T) {
	garbage := append([]byte(session.SnapshotMagic), bytes.Repeat([]byte{0xAB}, 512)...)
	up := snapshotUpstream(t, garbage, false)
	dir := t.TempDir()
	reg := NewRegistry()
	err := AdoptFromURL(reg, "w", up.URL, dir, session.DefaultConfig(), nil)
	assertCleanReject(t, reg, dir, "w", err)
}

// A snapshot that passes a header check (valid magic and version) but cannot
// open never reaches /readyz: LoadDir opens every world before registering
// it, so the boot fails naming the file instead of serving a shard whose
// readiness would vouch for a broken world. The all-good directory answers
// /readyz 200 with its inventory and epochs.
func TestReadyzCatchesBrokenLazySnapshot(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.snap")
	if err := os.WriteFile(good, snapshotBytes(t, testSession(t, 11, 25)), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.snap")
	head := binary.LittleEndian.AppendUint32([]byte(session.SnapshotMagic), session.SnapshotVersion)
	if err := os.WriteFile(bad, append(head, bytes.Repeat([]byte{0xCD}, 256)...), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := session.DefaultConfig()
	if reg, err := LoadDir(dir, cfg, nil); err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("LoadDir beside a header-valid broken snapshot = (%v, %v), want an error naming %s",
			reg, err, bad)
	}

	if err := os.Remove(bad); err != nil {
		t.Fatal(err)
	}
	reg, err := LoadDir(dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Options{}))
	defer ts.Close()
	resp, body := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("all-good readyz status = %d: %s", resp.StatusCode, body)
	}
	var rr ReadyResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Status != "ready" {
		t.Fatalf("readyz status field = %q", rr.Status)
	}
	if len(rr.Datasets) != 1 || rr.Datasets[0] != "good" {
		t.Fatalf("readyz inventory = %v, want exactly the good dataset", rr.Datasets)
	}
	if _, ok := rr.Epochs["good"]; !ok {
		t.Fatalf("readyz epochs = %v, want the good dataset's", rr.Epochs)
	}
}

// An unknown dataset's 404 must carry the owner hint when the server knows
// the fleet placement.
func TestUnknownDatasetOwnerHint(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("alpha", testSession(t, 11, 20)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Options{
		OwnerOf: func(ds string) (string, bool) {
			if ds == "elsewhere" {
				return "10.9.9.9:9001", true
			}
			return "", false
		},
	}))
	defer ts.Close()

	resp, body := post(t, ts.URL+"/v1/elsewhere/answer", `{"query":[{"entity":"e","attribute":"a"}]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Owner != "10.9.9.9:9001" {
		t.Fatalf("owner = %q, want the hinted shard", er.Owner)
	}
	if !strings.Contains(er.Error, "owned by 10.9.9.9:9001") {
		t.Fatalf("error body %q lacks the owner hint", er.Error)
	}

	// No hint available: the 404 stays plain.
	resp, body = post(t, ts.URL+"/v1/alsounknown/answer", `{"query":[{"entity":"e","attribute":"a"}]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var er2 ErrorResponse
	if err := json.Unmarshal(body, &er2); err != nil {
		t.Fatal(err)
	}
	if er2.Owner != "" || strings.Contains(er2.Error, "owned by") {
		t.Fatalf("unhinted 404 grew an owner: %+v", er2)
	}
}
