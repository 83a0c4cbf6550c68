package chaos

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Corruption records one planted fault: which file, and how it was
// damaged. The slice CorruptTree returns is the manifest a scrubber is
// audited against — quarantining 100% of it is the acceptance bar.
type Corruption struct {
	Path string `json:"path"` // absolute path of the damaged file
	Kind string `json:"kind"` // "bitflip" or "truncate"
}

// CorruptTree walks root and deterministically damages about frac of its
// regular files: half by flipping one payload bit, half by truncating the
// file mid-way. Selection, kind, and position are pure functions of
// (seed, path relative to root), so the same seed plants the same damage
// on the same tree. If frac > 0 and the tree has any eligible file, at
// least one is corrupted (the one with the lowest selection roll), so a
// scrub test can never vacuously pass. Empty files, temp files (put-*),
// and anything already under a quarantine/ directory are skipped.
func CorruptTree(root string, seed uint64, frac float64) ([]Corruption, error) {
	if frac <= 0 {
		return nil, nil
	}
	type candidate struct {
		path string
		roll float64
		r    *rolls
	}
	var cands []candidate
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "quarantine" {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if strings.HasPrefix(name, "put-") {
			return nil
		}
		info, err := d.Info()
		if err != nil || info.Size() == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		r := newRolls(seed, filepath.ToSlash(rel), 0)
		cands = append(cands, candidate{path: path, roll: r.Float(), r: r})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: corrupt %s: %w", root, err)
	}
	if len(cands) == 0 {
		return nil, nil
	}
	// Guarantee at least one victim: the lowest roll is always in.
	min := 0
	for i, c := range cands {
		if c.roll < cands[min].roll {
			min = i
		}
	}
	var manifest []Corruption
	for i, c := range cands {
		if c.roll >= frac && i != min {
			continue
		}
		kind, err := corruptFile(c.path, c.r)
		if err != nil {
			return manifest, fmt.Errorf("chaos: corrupt %s: %w", c.path, err)
		}
		manifest = append(manifest, Corruption{Path: c.path, Kind: kind})
	}
	return manifest, nil
}

// corruptFile damages one file in place, choosing the mutation from the
// file's own roll stream.
func corruptFile(path string, r *rolls) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	if r.Next()%2 == 0 || len(data) < 2 {
		// Flip one bit somewhere in the payload.
		pos := int(r.Next() % uint64(len(data)))
		bit := byte(1) << (r.Next() % 8)
		data[pos] ^= bit
		// Preserve the original mode; these are plain 0o644 artifacts.
		return "bitflip", os.WriteFile(path, data, 0o644)
	}
	// Truncate somewhere strictly inside the file (never to full length).
	keep := 1 + int(r.Next()%uint64(len(data)-1))
	return "truncate", os.Truncate(path, int64(keep))
}
