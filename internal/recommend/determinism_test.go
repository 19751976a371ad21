package recommend

import (
	"reflect"
	"testing"
)

// Repeated-run determinism: profile building and ranking over a freshly
// rebuilt world (and rerun discovery) must emit bit-identical slices (the
// profile loop runs on the calling goroutine, so there is no worker count to
// vary).

// The name is historical: the profile loop runs on the calling goroutine, so this
// checks run-to-run determinism only.
func TestProfilesDeterministicAcrossRunsAndParallelism(t *testing.T) {
	var wantProfiles []Profile
	var wantTop []Profile
	for run := 0; run < 3; run++ {
		d, dres := goldenProfileWorld(t, 11)
		profiles := BuildProfiles(d, dres.State(), nil)
		top, err := Top(profiles, DefaultWeights(), 4)
		if err != nil {
			t.Fatal(err)
		}
		if wantProfiles == nil {
			wantProfiles, wantTop = profiles, top
			continue
		}
		if !reflect.DeepEqual(profiles, wantProfiles) {
			t.Fatalf("profiles differ across runs (run %d)", run)
		}
		if !reflect.DeepEqual(top, wantTop) {
			t.Fatalf("ranking differs across runs (run %d)", run)
		}
	}
}
