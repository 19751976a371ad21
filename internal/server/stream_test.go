package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
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
	const hdrFixed = magicLen + 4 + 4 + 4 + 4 // magic, version, order, count, reserved
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

// snapshotUpstream serves body as a snapshot stream with the given CRC
// header value.
func snapshotUpstream(t testing.TB, body []byte, crcHeader string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		if crcHeader != "" {
			w.Header().Set(SnapshotCRCHeader, crcHeader)
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func crcOf(b []byte) string {
	return strconv.FormatUint(uint64(crc32.ChecksumIEEE(b)), 10)
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

// The snapshot endpoint must stream the container with a matching
// whole-stream CRC header, from both session flavors: heap-built (rendered
// fresh) and snapshot-backed (the mapped bytes verbatim).
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
	if got, want := resp.Header.Get(SnapshotCRCHeader), crcOf(body); got != want {
		t.Fatalf("CRC header = %s, body CRC = %s", got, want)
	}
	if !bytes.Equal(body, snapshotBytes(t, sessions["alpha"])) {
		t.Fatal("streamed bytes differ from WriteSnapshot output")
	}

	// Mapped session: load the same world from disk and stream it again —
	// the bytes must be the file's bytes exactly.
	dir := t.TempDir()
	path := filepath.Join(dir, "alpha.snap")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	mappedSess, err := session.LoadSnapshotFile(path, session.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Register("alpha", mappedSess); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(New(reg, Options{}))
	defer ts2.Close()
	resp2, body2 := get(t, ts2.URL+"/v1/alpha/snapshot")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("mapped status = %d", resp2.StatusCode)
	}
	if !bytes.Equal(body2, body) {
		t.Fatal("mapped stream differs from the on-disk container")
	}
	if got, want := resp2.Header.Get(SnapshotCRCHeader), crcOf(body); got != want {
		t.Fatalf("mapped CRC header = %s, want %s", got, want)
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
	if _, err := os.Stat(filepath.Join(dir, "alpha.snap")); err != nil {
		t.Fatalf("adopted snapshot not installed: %v", err)
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
// the section boundaries of an earlier layout of the same world, a start and
// an end per section (a boundary shared by empty sections recurs). Every one
// lies inside the current container's sections.
var fixedCuts = []int{
	628, 632, 796, 800, 1180, 1184, 1568, 1568, 2848, 2848, 2884, 2888,
	4168, 4168, 5448, 5448, 6728, 6728, 6764,
	6768, 6768, 6768, 6768, 6768, 6768, 6768, 6768, 6768, 6768, 6768,
	7435, 7440, 7476, 7480, 7804, 7808, 8192, 8192, 8256, 8256, 8768, 8768,
	8785, 8792, 9259, 9264, 10564, 10568, 12588, 12592,
}

// Truncate the stream at the fixed grid and at every section boundary. With
// the upstream advertising the ORIGINAL CRC (the truncation happened
// mid-transfer), the transfer check must reject every cut. With an HONEST
// CRC of the truncated bytes (a corrupt source), the structural validation
// must reject instead. Either way: ErrCorrupt, nothing registered, nothing
// left on disk.
func TestAdoptRejectsTruncation(t *testing.T) {
	full := snapshotBytes(t, testSession(t, 11, 40))
	bounds := sectionBoundaries(t, full)
	maxEnd := 0
	for _, b := range bounds {
		if b > maxEnd {
			maxEnd = b
		}
	}
	if fixedCuts[len(fixedCuts)-1] >= maxEnd {
		t.Fatalf("the %d-byte container ends before the fixed grid does", maxEnd)
	}
	origCRC := crcOf(full)
	for _, cut := range append(fixedCuts, bounds...) {
		if cut >= len(full) {
			continue
		}
		cut := cut
		t.Run(fmt.Sprintf("midtransfer_cut_%d", cut), func(t *testing.T) {
			up := snapshotUpstream(t, full[:cut], origCRC)
			dir := t.TempDir()
			reg := NewRegistry()
			err := AdoptFromURL(reg, "w", up.URL, dir, session.DefaultConfig(), nil)
			assertCleanReject(t, reg, dir, "w", err)
		})
		// Cutting exactly at the final section's end only drops alignment
		// padding — the container can still validate, so the honest-CRC grid
		// covers strictly-destructive cuts only.
		if cut >= maxEnd {
			continue
		}
		t.Run(fmt.Sprintf("badsource_cut_%d", cut), func(t *testing.T) {
			trunc := full[:cut]
			up := snapshotUpstream(t, trunc, crcOf(trunc))
			dir := t.TempDir()
			reg := NewRegistry()
			err := AdoptFromURL(reg, "w", up.URL, dir, session.DefaultConfig(), nil)
			assertCleanReject(t, reg, dir, "w", err)
		})
	}
}

// Flip single bytes across the container — in the magic, the section table,
// deep inside section payloads (at fixed offsets, so the case names do not
// move with the layout) and the final byte — with the upstream advertising
// the original CRC (an in-transit flip). Payloads are unchecksummed by
// design, so the transfer CRC is the only line of defense for the payload
// flips; every flip must be rejected cleanly.
func TestAdoptRejectsBitFlips(t *testing.T) {
	full := snapshotBytes(t, testSession(t, 11, 80))
	origCRC := crcOf(full)
	positions := []int{
		2,                   // magic
		30,                  // section table
		12012, 18018, 24023, // inside payloads
		len(full) - 1, // final byte
	}
	if len(full) <= 24023 {
		t.Fatalf("the %d-byte container ends before the deepest flip", len(full))
	}
	for _, pos := range positions {
		pos := pos
		t.Run(fmt.Sprintf("flip_%d", pos), func(t *testing.T) {
			flipped := append([]byte(nil), full...)
			flipped[pos] ^= 0x40
			up := snapshotUpstream(t, flipped, origCRC)
			dir := t.TempDir()
			reg := NewRegistry()
			err := AdoptFromURL(reg, "w", up.URL, dir, session.DefaultConfig(), nil)
			assertCleanReject(t, reg, dir, "w", err)
		})
	}
}

// A source that serves no CRC header still cannot sneak structural garbage
// past adopt: the full load validation runs regardless.
func TestAdoptRejectsGarbageWithoutCRC(t *testing.T) {
	garbage := append([]byte(session.SnapshotMagic), bytes.Repeat([]byte{0xAB}, 512)...)
	up := snapshotUpstream(t, garbage, "")
	dir := t.TempDir()
	reg := NewRegistry()
	err := AdoptFromURL(reg, "w", up.URL, dir, session.DefaultConfig(), nil)
	assertCleanReject(t, reg, dir, "w", err)
}

// The /readyz bugfix: a lazily-registered snapshot that passes the cheap
// header check but cannot actually open must flip /healthz to ready:false
// and make /readyz answer 503 naming the dataset — before any request ever
// touches the broken world.
func TestReadyzCatchesBrokenLazySnapshot(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.snap")
	if err := os.WriteFile(good, snapshotBytes(t, testSession(t, 11, 25)), 0o644); err != nil {
		t.Fatal(err)
	}
	// Valid magic and version, garbage body: RegisterLazy's header check
	// accepts it.
	bad := filepath.Join(dir, "bad.snap")
	head := binary.LittleEndian.AppendUint32([]byte(session.SnapshotMagic), session.SnapshotVersion)
	if err := os.WriteFile(bad, append(head, bytes.Repeat([]byte{0xCD}, 256)...), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := session.DefaultConfig()
	reg := NewRegistry()
	if err := reg.RegisterLazy("good", good, cfg); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterLazy("bad", bad, cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Options{}))
	defer ts.Close()

	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Ready {
		t.Fatal("healthz reports ready before any snapshot was verified")
	}

	resp, body = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz status = %d, want 503: %s", resp.StatusCode, body)
	}
	var rr ReadyResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Status != "unready" && rr.Status != "loading" {
		t.Fatalf("readyz status field = %q", rr.Status)
	}
	if len(rr.Failures) != 1 || rr.Failures[0].Dataset != "bad" {
		t.Fatalf("readyz failures = %+v, want exactly the bad dataset", rr.Failures)
	}
	if len(rr.Datasets) != 2 {
		t.Fatalf("readyz inventory = %v, want both datasets", rr.Datasets)
	}

	// An all-good registry verifies and answers 200, and the verdict is
	// cached: healthz flips to ready.
	reg2 := NewRegistry()
	if err := reg2.RegisterLazy("good", good, cfg); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(New(reg2, Options{}))
	defer ts2.Close()
	resp, body = get(t, ts2.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("all-good readyz status = %d: %s", resp.StatusCode, body)
	}
	resp, body = get(t, ts2.URL+"/healthz")
	var h2 HealthResponse
	if err := json.Unmarshal(body, &h2); err != nil {
		t.Fatal(err)
	}
	if !h2.Ready {
		t.Fatal("healthz not ready after readyz verified every world")
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
