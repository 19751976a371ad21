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
	"slices"
	"strings"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/session"
	"sourcecurrents/internal/snapio"
)

// retiredFrame lays payload out in the retired frame format by hand: magic,
// version, the payload's length, the payload and its IEEE CRC.
func retiredFrame(magic string, version uint32, payload []byte) []byte {
	b := append([]byte(magic), binary.LittleEndian.AppendUint32(nil, version)...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// TestLoadDirRefusesRetiredFormats: LoadDir opens every snapshot, so the
// retired decode-everything stream (ErrBadMagic) and a container of the
// retired version 1 (ErrBadVersion) fail the boot, naming the file, rather
// than registering a world no request could serve.
func TestLoadDirRefusesRetiredFormats(t *testing.T) {
	stream := retiredFrame("SCDSSESS", 2, make([]byte, 4))
	var v1 bytes.Buffer
	var sw snapio.SectionWriter
	if err := sw.WriteTo(&v1, session.SnapshotMagic, 1); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		raw  []byte
		want error
	}{
		"stream": {stream, snapio.ErrBadMagic},
		"v1":     {v1.Bytes(), snapio.ErrBadVersion},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, name+".snap")
		if err := os.WriteFile(path, tc.raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadDir(dir, session.DefaultConfig(), nil)
		if !errors.Is(err, tc.want) || !strings.Contains(fmt.Sprint(err), path) {
			t.Fatalf("%s: LoadDir = %v, want %v naming %s", name, err, tc.want, path)
		}
	}
}

// TestLoadDirRefusesDamagedSegments: a world's append-log segment in the
// retired version 1 frame (ErrBadVersion), or a current one with one bit
// flipped in its records (ErrChecksum), fails the boot naming the file.
func TestLoadDirRefusesDamagedSegments(t *testing.T) {
	s := testSession(t, 23, 12)
	var snap bytes.Buffer
	if err := s.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	claim := model.NewClaim("S9", s.Dataset().Objects()[0], "UW")
	var rec snapio.Writer
	rec.U32(1)
	for _, str := range []string{string(claim.Source), claim.Object.Entity, claim.Object.Attribute, claim.Value} {
		rec.Str(str)
	}
	rec.Bool(claim.HasTime)
	rec.I64(int64(claim.Time))
	rec.F64(claim.Prob)
	var seg bytes.Buffer
	if err := dataset.WriteSegment(&seg, []model.Claim{claim}); err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(seg.Bytes())
	flipped[len(flipped)-1] ^= 0x01
	for name, tc := range map[string]struct {
		raw  []byte
		want error
	}{
		"v1":      {retiredFrame(dataset.SegmentMagic, 1, rec.Payload()), snapio.ErrBadVersion},
		"flipped": {flipped, snapio.ErrChecksum},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "world.snap"), snap.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "world.000001.seg")
		if err := os.WriteFile(path, tc.raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadDir(dir, session.DefaultConfig(), nil)
		if !errors.Is(err, tc.want) || !strings.Contains(fmt.Sprint(err), path) {
			t.Fatalf("%s: LoadDir = %v, want %v naming %s", name, err, tc.want, path)
		}
	}
}

// snapDir writes n worlds as snapshots into a temp directory and
// returns it with the answer request and golden answer body for each world.
func snapDir(t testing.TB, n int) (string, map[string]string, map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	reqs := make(map[string]string, n)
	wants := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("world%d", i)
		s := testSession(t, int64(100+i), 12+i)
		f, err := os.Create(filepath.Join(dir, name+".snap"))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteSnapshot(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		reqs[name] = answerBody(t, s, 6)
		var ar AnswerRequest
		if err := decodeBody([]byte(reqs[name]), &ar); err != nil {
			t.Fatal(err)
		}
		wants[name] = expectedAnswer(t, s, ar)
	}
	return dir, reqs, wants
}

// TestLoadDirMapsEveryWorld: LoadDir opens every snapshot before it returns,
// logging each with its file's size — /readyz lists every world at epoch 0
// before the first request — and the loaded worlds answer byte-identically
// to the sessions they were written from.
func TestLoadDirMapsEveryWorld(t *testing.T) {
	dir, reqs, wants := snapDir(t, 3)
	var logged []string
	reg, err := LoadDir(dir, session.DefaultConfig(), func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range reqs {
		info, err := os.Stat(filepath.Join(dir, name+".snap"))
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("opened %q from snapshot %s.snap (%d bytes)", name, name, info.Size())
		if !slices.Contains(logged, want) {
			t.Fatalf("LoadDir did not log %q; it logged %q", want, logged)
		}
	}

	ts := httptest.NewServer(New(reg, Options{}))
	defer ts.Close()
	_, readyBody := get(t, ts.URL+"/readyz")
	var ready ReadyResponse
	if err := json.Unmarshal(readyBody, &ready); err != nil {
		t.Fatal(err)
	}
	if len(ready.Datasets) != len(reqs) {
		t.Fatalf("/readyz before the first request lists %v", ready.Datasets)
	}
	for _, name := range ready.Datasets {
		if e, ok := ready.Epochs[name]; reqs[name] == "" || !ok || e != 0 {
			t.Fatalf("/readyz before the first request: %s at epoch %d (%v)", name, e, ok)
		}
	}
	for name, req := range reqs {
		resp, body := post(t, ts.URL+"/v1/"+name+"/answer", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, body)
		}
		if !bytes.Equal(body, wants[name]) {
			t.Fatalf("%s: the loaded world answers differently from the session it was written from", name)
		}
	}
}
