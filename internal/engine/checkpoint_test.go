package engine

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestCheckpointJSONRoundTrip guards the cross-version replay contract
// (DESIGN.md "Checkpoints"): a frontier serialized the way cmd/tascheck
// writes it, deserialized, used to resume the walk, and re-serialized must
// be byte-identical — resuming must not mutate the checkpoint, and the
// encoding must be stable under decode/encode.
func TestCheckpointJSONRoundTrip(t *testing.T) {
	for _, prune := range []PruneMode{PruneNone, PruneSleep} {
		rep, err := Run(mixedHarness(nil), Config{Prune: prune, MaxExecutions: 3, Crashes: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Checkpoint == nil || len(rep.Checkpoint.Items) == 0 {
			t.Fatalf("prune=%v: budget cut produced no checkpoint", prune)
		}
		saved, err := json.MarshalIndent(rep.Checkpoint, "", " ")
		if err != nil {
			t.Fatal(err)
		}

		var loaded Checkpoint
		if err := json.Unmarshal(saved, &loaded); err != nil {
			t.Fatal(err)
		}
		reserialized, err := json.MarshalIndent(&loaded, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved, reserialized) {
			t.Fatalf("prune=%v: decode/encode not byte-identical:\n%s\nvs\n%s", prune, saved, reserialized)
		}

		// Resume from the loaded frontier (to completion), then assert the
		// checkpoint itself came through the resume untouched.
		if _, err := Run(mixedHarness(nil), Config{Prune: prune, Crashes: true, Resume: &loaded}); err != nil {
			t.Fatal(err)
		}
		afterResume, err := json.MarshalIndent(&loaded, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved, afterResume) {
			t.Fatalf("prune=%v: resuming mutated the checkpoint:\n%s\nvs\n%s", prune, saved, afterResume)
		}
	}
}
