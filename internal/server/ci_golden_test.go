package server

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/session"
)

// TestCIGoldenInSync guards the checked-in CI e2e fixtures: each golden in
// testdata/ must equal what the server produces over testdata/ci_claims.csv —
// ci_answer_golden.json for testdata/ci_answer_request.json on /answer,
// ci_fuse_golden.json for /fuse, and ci_recommend_golden.json for /recommend
// with the body {}. The CI workflow boots a real `currents server` from a
// snapshot of the same CSV, curls the same requests, and diffs against the
// same goldens — so this test failing means a golden needs regenerating:
//
//	REGEN_CI_GOLDEN=1 go test -run TestCIGoldenInSync ./internal/server/
func TestCIGoldenInSync(t *testing.T) {
	csvFile, err := os.Open(filepath.Join("testdata", "ci_claims.csv"))
	if err != nil {
		t.Fatal(err)
	}
	claims, err := dataset.ReadCSV(csvFile)
	csvFile.Close()
	if err != nil {
		t.Fatal(err)
	}
	d, err := dataset.FromClaims(claims)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := session.New(d, session.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	reqBody, err := os.ReadFile(filepath.Join("testdata", "ci_answer_request.json"))
	if err != nil {
		t.Fatal(err)
	}
	var req AnswerRequest
	if err := decodeBody(reqBody, &req); err != nil {
		t.Fatal(err)
	}
	res, err := ExecAnswer(sess, req)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := ExecFuse(sess)
	if err != nil {
		t.Fatal(err)
	}
	top, err := ExecRecommend(sess, RecommendRequest{})
	if err != nil {
		t.Fatal(err)
	}

	for name, want := range map[string][]byte{
		"ci_answer_golden.json":    expectJSON(t, BuildAnswerResponse(res, req.IncludeSteps)),
		"ci_fuse_golden.json":      expectJSON(t, BuildFuseResponse(d.Objects(), fused)),
		"ci_recommend_golden.json": expectJSON(t, BuildRecommendResponse(top)),
	} {
		goldenPath := filepath.Join("testdata", name)
		if os.Getenv("REGEN_CI_GOLDEN") == "1" {
			if err := os.WriteFile(goldenPath, want, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("regenerated %s (%d bytes)", goldenPath, len(want))
			continue
		}
		golden, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v — regenerate with REGEN_CI_GOLDEN=1", err)
		}
		if !bytes.Equal(golden, want) {
			t.Fatalf("%s out of sync with the serving path — regenerate with REGEN_CI_GOLDEN=1\ngolden: %s\nwant:   %s", name, golden, want)
		}
	}
}
