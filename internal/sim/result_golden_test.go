package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"flywheel/internal/cacti"
)

// goldenResults runs gcc for 20k instructions on every architecture, exact
// and then sampled with a schedule small enough to fit several windows
// after the bootstrap.
func goldenResults(t *testing.T) []Result {
	t.Helper()
	var out []Result
	for _, sp := range []Sampling{{}, {Period: 4_000, WindowInsts: 1_000, WarmupInsts: 500}} {
		for _, arch := range []Arch{ArchBaseline, ArchFlywheel, ArchRegAlloc} {
			res, err := Run(RunConfig{
				Workload: "gcc", Arch: arch, Node: cacti.Node130,
				FEBoostPct: 50, BEBoostPct: 50, MaxInstructions: 20_000,
				Sampling: sp,
			})
			if err != nil {
				t.Fatalf("%v sampling=%+v: %v", arch, sp, err)
			}
			out = append(out, res)
		}
	}
	return out
}

// TestResultGolden pins the serialized Result — every field, exact and
// sampled — to testdata/result_golden.json. Results are stored and
// streamed as this JSON, so a refactor of how results are filled must
// leave it byte-identical; only a deliberate model or format change
// (with its ModelVersion decision) may regenerate it, from the document
// this test logs on mismatch.
func TestResultGolden(t *testing.T) {
	got, err := json.MarshalIndent(goldenResults(t), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "result_golden.json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Errorf("%s:%d differs:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			break
		}
	}
	t.Fatalf("result JSON differs from %s (%d lines, golden %d); got:\n%s", path, len(gl), len(wl), got)
}
