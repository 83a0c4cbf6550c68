package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flywheel/internal/cacti"
	"flywheel/internal/sim"
)

// legacyKey and legacyConfig identify the entry in testdata/legacy_entry.json.
// That entry was written while sim.Result still carried the full per-core
// statistics blocks (Baseline, Flywheel, TraceStats).
const legacyKey = `wl="gcc"|arch=1|node=0.13|fe=50|be=50|n=20000|fes=0|pws=false`

var legacyConfig = sim.RunConfig{
	Workload: "gcc", Arch: sim.ArchFlywheel, Node: cacti.Node130,
	FEBoostPct: 50, BEBoostPct: 50, MaxInstructions: 20_000,
}

// TestLegacyEntryLoads pins that dropping fields from sim.Result needs no
// ModelVersion bump: an entry stored with the dropped keys still passes
// its checksum and decodes through Get, and every field that remains
// equals a fresh run of the same configuration.
func TestLegacyEntryLoads(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "legacy_entry.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{`"Baseline":`, `"Flywheel":`, `"TraceStats":`} {
		if !bytes.Contains(data, []byte(k)) {
			t.Fatalf("fixture lacks the legacy key %s", k)
		}
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := s.path(legacyKey)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(legacyKey)
	if !ok {
		t.Fatalf("legacy entry rejected (stats %+v)", s.Stats())
	}
	want, err := sim.Run(legacyConfig)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy entry decodes to\n%+v\nwant\n%+v", got, want)
	}
}
