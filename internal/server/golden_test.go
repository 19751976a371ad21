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
	"strings"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/session"
	"sourcecurrents/internal/snapio"
)

// expectJSON renders the byte-exact body the server must produce for a
// value: json.Marshal plus the trailing newline.
func expectJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func intp(v int) *int { return &v }

func refsFor(objs []model.ObjectID) []ObjectRef {
	refs := make([]ObjectRef, len(objs))
	for i, o := range objs {
		refs[i] = ObjectRef{Entity: o.Entity, Attribute: o.Attribute}
	}
	return refs
}

func marshalReq(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// expectedAnswer computes the golden response bytes for an answer request
// by calling the Session directly — the same path ExecAnswer takes.
func expectedAnswer(t testing.TB, sess *session.Session, req AnswerRequest) []byte {
	t.Helper()
	res, err := ExecAnswer(sess, req)
	if err != nil {
		t.Fatal(err)
	}
	return expectJSON(t, BuildAnswerResponse(res, req.IncludeSteps))
}

// TestHTTPByteIdenticalToSessionCalls pins the equivalence acceptance
// criterion: every HTTP response body is byte-for-byte the JSON encoding of
// the result a direct Session call returns for the same request.
func TestHTTPByteIdenticalToSessionCalls(t *testing.T) {
	ts, sessions := testServer(t)

	for name, sess := range sessions {
		base := ts.URL + "/v1/" + name
		objs := sess.Dataset().Objects()

		answerReqs := []AnswerRequest{
			{Query: refsFor(objs)},
			{Query: refsFor(objs[:3])},
			{Query: refsFor([]model.ObjectID{objs[0], objs[0], objs[4]})}, // duplicates
			{Query: refsFor(objs[:6]), Policy: "accuracy-coverage", MaxSources: 3},
			{Query: refsFor(objs[:4]), Policy: "by-id", IncludeSteps: true},
			{Query: refsFor(objs[:5]), StopProb: 0.9},
		}
		for i, req := range answerReqs {
			t.Run(fmt.Sprintf("%s/answer/%d", name, i), func(t *testing.T) {
				want := expectedAnswer(t, sess, req)
				resp, got := post(t, base+"/answer", marshalReq(t, req))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status = %d: %s", resp.StatusCode, got)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("HTTP body differs from direct call:\nhttp: %s\nwant: %s", got, want)
				}
			})
		}

		t.Run(name+"/fuse", func(t *testing.T) {
			res, err := ExecFuse(sess)
			if err != nil {
				t.Fatal(err)
			}
			want := expectJSON(t, BuildFuseResponse(sess.Dataset().Objects(), res))
			resp, got := post(t, base+"/fuse", "")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d: %s", resp.StatusCode, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("HTTP fuse differs from direct call:\nhttp: %s\nwant: %s", got, want)
			}
		})

		recommendReqs := []RecommendRequest{
			{K: intp(3)},
			{K: intp(5), Weights: &WeightsRequest{Accuracy: 1}},
			{K: intp(0)}, // explicitly zero results
			{},           // absent K defaults to 5
		}
		for i, req := range recommendReqs {
			t.Run(fmt.Sprintf("%s/recommend/%d", name, i), func(t *testing.T) {
				top, err := ExecRecommend(sess, req)
				if err != nil {
					t.Fatal(err)
				}
				want := expectJSON(t, BuildRecommendResponse(top))
				resp, got := post(t, base+"/recommend", marshalReq(t, req))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status = %d: %s", resp.StatusCode, got)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("HTTP recommend differs from direct call:\nhttp: %s\nwant: %s", got, want)
				}
			})
		}

		t.Run(name+"/accuracy", func(t *testing.T) {
			want := expectJSON(t, BuildAccuracyResponse(ExecAccuracy(sess)))
			resp, got := get(t, base+"/accuracy")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d: %s", resp.StatusCode, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("HTTP accuracy differs from direct call:\nhttp: %s\nwant: %s", got, want)
			}
		})

		t.Run(name+"/link", func(t *testing.T) {
			req := LinkRequest{MatchThreshold: 0.8}
			res, err := ExecLink(sess, req)
			if err != nil {
				t.Fatal(err)
			}
			want := expectJSON(t, BuildLinkResponse(res))
			resp, got := post(t, base+"/link", marshalReq(t, req))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d: %s", resp.StatusCode, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("HTTP link differs from direct call:\nhttp: %s\nwant: %s", got, want)
			}
		})
	}
}

// TestSnapshotServedByteIdentical closes the loop across the new subsystem:
// a server cold-started from a session snapshot serves byte-identical
// responses to one built from raw claims.
func TestSnapshotServedByteIdentical(t *testing.T) {
	built := testSession(t, 47, 30)
	var buf bytes.Buffer
	if err := built.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := session.LoadSnapshot(bytes.NewReader(buf.Bytes()), session.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	if err := reg.Register("built", built); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("loaded", loaded); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Options{}))
	t.Cleanup(ts.Close)

	body := marshalReq(t, AnswerRequest{Query: refsFor(built.Dataset().Objects()), IncludeSteps: true})
	_, a := post(t, ts.URL+"/v1/built/answer", body)
	_, b := post(t, ts.URL+"/v1/loaded/answer", body)
	if !bytes.Equal(a, b) {
		t.Fatal("snapshot-loaded server answers differ from built server")
	}
	_, fa := post(t, ts.URL+"/v1/built/fuse", "")
	_, fb := post(t, ts.URL+"/v1/loaded/fuse", "")
	if !bytes.Equal(fa, fb) {
		t.Fatal("snapshot-loaded server fuse differs from built server")
	}
}

// TestCorruptLogIsServerError: a snapshot whose claim log was changed after
// it was written (two claims' value ids swapped, each in range, under the
// seal of the container as it was) is a corrupt file, and the server treats
// it as one wherever it arrives — the world is never served. LoadDir fails
// the boot naming the file, and /adopt of such a stream answers 502 and
// leaves the directory untouched.
func TestCorruptLogIsServerError(t *testing.T) {
	built := testSession(t, 47, 30)
	var buf bytes.Buffer
	if err := built.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := snapio.OpenContainer(buf.Bytes(), session.SnapshotMagic, session.SnapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := m.Section(dataset.SecLogVal)
	i32 := binary.NativeEndian
	for j, first := 4, i32.Uint32(b); j < len(b); j += 4 {
		if v := i32.Uint32(b[j:]); v != first {
			i32.PutUint32(b, v)
			i32.PutUint32(b[j:], first)
			break
		}
	}
	raw := buf.Bytes()
	if _, err := session.LoadSnapshot(bytes.NewReader(raw), session.DefaultConfig()); !errors.Is(err, snapio.ErrChecksum) || !errors.Is(err, snapio.ErrCorrupt) {
		t.Fatalf("LoadSnapshot: err = %v, want ErrChecksum and ErrCorrupt", err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "corrupt.snap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if reg, err := LoadDir(dir, session.DefaultConfig(), nil); !errors.Is(err, snapio.ErrCorrupt) || !strings.Contains(err.Error(), path) {
		t.Fatalf("LoadDir = (%v, %v), want ErrCorrupt naming %s", reg, err, path)
	}

	adoptDir := t.TempDir()
	up := snapshotUpstream(t, raw, false)
	shard := httptest.NewServer(New(NewRegistry(), Options{AdoptDir: adoptDir, SessionCfg: session.DefaultConfig()}))
	t.Cleanup(shard.Close)
	resp, body := post(t, shard.URL+"/v1/corrupt/adopt?from="+up.URL, "")
	if resp.StatusCode != http.StatusBadGateway || !bytes.Contains(body, []byte(snapio.ErrCorrupt.Error())) {
		t.Fatalf("adopt: %d %s, want 502 naming %v", resp.StatusCode, body, snapio.ErrCorrupt)
	}
	if entries, err := os.ReadDir(adoptDir); err != nil || len(entries) != 0 {
		t.Fatalf("adopt left %v in its directory (%v)", entries, err)
	}
}
