package labd

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"flywheel/internal/sim"
)

// TestDecodeSweepStreamAllocatesPerLine: the decoder's buffer grows with
// the lines it reads, so a short sweep — the fabric decodes one per job —
// costs a few kilobytes, not a megabyte-sized buffer.
func TestDecodeSweepStreamAllocatesPerLine(t *testing.T) {
	var body bytes.Buffer
	for i := 0; i < 4; i++ {
		line, err := json.Marshal(SweepLine{Index: i, Key: strings.Repeat("k", 64), Result: &sim.Result{}})
		if err != nil {
			t.Fatal(err)
		}
		body.Write(line)
		body.WriteByte('\n')
	}
	const decodes = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < decodes; i++ {
		if lines, err := decodeSweepStream(bytes.NewReader(body.Bytes()), 4); err != nil || len(lines) != 4 {
			t.Fatalf("decode: %d lines, %v", len(lines), err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / decodes
	t.Logf("%d B allocated per 4-line decode (%d B of NDJSON)", perCall, body.Len())
	if perCall > 64<<10 {
		t.Fatalf("a 4-line decode allocates %d B, want under 64 KiB", perCall)
	}
}
