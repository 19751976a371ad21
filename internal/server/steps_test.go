package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"
)

// TestIncludeStepsSameFinal pins what serving the default /answer without
// its trace may not change. For one request sent with and without
// include_steps the replies' "probed" and "final" are the same bytes — the
// default reply is selected first and scored once, the include_steps reply
// is rescored after every probe — and the include_steps replies are byte for
// byte what the per-probe planner produced before the two were split
// (testdata/answer_steps.golden was generated at the commit before;
// regenerate only on a deliberate format change, with REGEN_STEPS_GOLDEN=1).
func TestIncludeStepsSameFinal(t *testing.T) {
	ts, sessions := testServer(t)
	objs := sessions["alpha"].Dataset().Objects()
	refs := refsFor(objs[:6])
	refs = append(refs, refs[1], ObjectRef{Entity: "nobody", Attribute: "v"})
	var golden bytes.Buffer
	for _, req := range []AnswerRequest{
		{Query: refs},
		{Query: refs, Policy: "accuracy-coverage", MaxSources: 5},
		{Query: refs[:6], Policy: "by-id", StopProb: 0.9}, // stops early
		{Query: refs[len(refs)-1:]},                       // no source covers it: nothing probed
	} {
		var fields [2]struct {
			Probed, Final json.RawMessage
		}
		for i, steps := range []bool{false, true} {
			req.IncludeSteps = steps
			resp, body := post(t, ts.URL+"/v1/alpha/answer", marshalReq(t, req))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			if err := json.Unmarshal(body, &fields[i]); err != nil {
				t.Fatal(err)
			}
			if steps {
				golden.Write(body)
			}
		}
		if !bytes.Equal(fields[0].Probed, fields[1].Probed) || !bytes.Equal(fields[0].Final, fields[1].Final) {
			t.Fatalf("request %s: probed/final differ with include_steps:\n%s %s\n%s %s", marshalReq(t, req),
				fields[0].Probed, fields[0].Final, fields[1].Probed, fields[1].Final)
		}
	}
	compareGolden(t, "REGEN_STEPS_GOLDEN", filepath.Join("testdata", "answer_steps.golden"), golden.Bytes())
}
