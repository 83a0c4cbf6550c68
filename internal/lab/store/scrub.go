package store

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Scrub proactively audits the shard the way Get would only ever do
// lazily, one key at a time: it walks every entry of the current version
// and verifies the full integrity chain — parseable JSON, version stamp,
// key-to-address match (the sha256 the file sits under must be derivable
// from its stamped key), and the payload checksum. Anything that fails is
// moved to <root>/quarantine/ preserving its relative path, and appended
// to <root>/quarantine/MANIFEST.ndjson, one JSON line per file. A
// quarantined entry is a plain miss afterwards, so the next request for
// that key transparently re-simulates and re-persists it; the damaged
// bytes are preserved for forensics instead of being served or deleted.
//
// Scrub is safe to run while the store serves traffic: only invalid
// files are moved, readers of a file mid-rename keep their open handle,
// and a concurrent Put of a fresh entry is never touched.

// Quarantined describes one file a scrub moved aside.
type Quarantined struct {
	Path   string `json:"path"` // original location
	To     string `json:"to"`   // where it was moved
	Reason string `json:"reason"`
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	// Entries counts files checked (healthy or not).
	Entries     int           `json:"entries"`
	Quarantined []Quarantined `json:"quarantined"`
}

// Bad is the number of files this pass quarantined.
func (r *ScrubReport) Bad() int { return len(r.Quarantined) }

// QuarantineDir returns where this store moves corrupt files.
func (s *Store) QuarantineDir() string { return filepath.Join(s.dir, "quarantine") }

// Scrub runs one audit pass and returns what it checked and quarantined.
// The error reports infrastructure trouble (an unwalkable tree, a failed
// move) — finding corrupt files is a normal outcome, not an error.
func (s *Store) Scrub() (*ScrubReport, error) {
	rep := &ScrubReport{}

	root := filepath.Join(s.dir, s.version)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil // empty store: nothing to scrub
			}
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".json") {
			return nil
		}
		rep.Entries++
		if reason := s.checkEntry(path); reason != "" {
			return s.quarantine(rep, path, reason)
		}
		return nil
	})
	if err != nil {
		return rep, fmt.Errorf("store: scrub: %w", err)
	}

	return rep, nil
}

// checkEntry verifies one entry file end to end; "" means healthy.
func (s *Store) checkEntry(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		// Raced with a concurrent quarantine/replacement; not our problem.
		return ""
	}
	var e entryFile
	if err := json.Unmarshal(data, &e); err != nil {
		return fmt.Sprintf("unparseable: %v", err)
	}
	if _, err := decodeEntry(data, s.version, e.Key); err != nil {
		return err.Error()
	}
	// The address must be derivable from the stamped key: a valid-looking
	// entry sitting at the wrong address would never be served for its
	// own key and could shadow another's.
	if want := s.path(e.Key); want != path {
		return fmt.Sprintf("address mismatch: stamped key addresses %s", filepath.Base(want))
	}
	return ""
}

// quarantine moves one bad file under QuarantineDir, preserving its path
// relative to the store root, and appends a manifest line.
func (s *Store) quarantine(rep *ScrubReport, path, reason string) error {
	rel, err := filepath.Rel(s.dir, path)
	if err != nil {
		return err
	}
	dst := filepath.Join(s.QuarantineDir(), rel)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	if err := os.Rename(path, dst); err != nil {
		if os.IsNotExist(err) {
			return nil // lost a race with another scrubber; fine
		}
		return err
	}
	q := Quarantined{Path: path, To: dst, Reason: reason}
	rep.Quarantined = append(rep.Quarantined, q)
	s.appendManifest(q)
	return nil
}

// manifestLine is one MANIFEST.ndjson record.
type manifestLine struct {
	Time time.Time `json:"time"`
	Quarantined
}

// appendManifest best-effort logs the quarantine; the move itself is the
// source of truth, the manifest is the operator's audit trail.
func (s *Store) appendManifest(q Quarantined) {
	line, err := json.Marshal(manifestLine{Time: time.Now().UTC(), Quarantined: q})
	if err != nil {
		return
	}
	s.manifestMu.Lock()
	defer s.manifestMu.Unlock()
	f, err := os.OpenFile(filepath.Join(s.QuarantineDir(), "MANIFEST.ndjson"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	f.Write(append(line, '\n'))
}
