// Sweep checkpoints: the resumable-run contract of cmd/modelcheck.
//
// A checkpoint records everything an interrupted exhaustive sweep needs to
// continue instead of restarting: the configuration it was started with
// (so a resume with different flags is refused rather than silently
// merged), the cursor — the last identifier assignment whose exploration
// ran to completion — and the cumulative totals. The sweep enumerates
// assignments in lexicographic order with no randomness, so "skip every
// assignment ≤ cursor, fold the recorded totals, continue" reproduces the
// uninterrupted run bit for bit.
//
// Durability: each Save first rotates the previous checkpoint to
// path+".prev", then writes the new one through internal/atomicio
// (temp file + fsync + rename), and embeds a SHA-256 of the payload.
// Load verifies the checksum and falls back to the ".prev" generation
// when the primary is truncated or corrupted — a damaged checkpoint is
// always detected, never silently resumed from.
package ooc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"asynccycle/internal/atomicio"
)

// payloadSum digests the payload in compact form, making the checksum
// insensitive to JSON whitespace while still catching any value change.
func payloadSum(payload []byte) string {
	var buf bytes.Buffer
	if err := json.Compact(&buf, payload); err != nil {
		// Non-JSON bytes can never match a digest of valid JSON.
		buf.Reset()
		buf.Write(payload)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// CheckpointVersion identifies the on-disk format; a mismatch refuses the
// resume rather than guessing.
const CheckpointVersion = 1

// SweepMeta pins the sweep configuration a checkpoint belongs to. Every
// field participates in the resume compatibility check.
type SweepMeta struct {
	Alg string `json:"alg"`
	N   int    `json:"n"`
	// Topology is the -topology retarget spec ("" = the protocol's native
	// topology). omitempty keeps checkpoints from native-topology sweeps —
	// including every pre-topology checkpoint — byte-compatible.
	Topology   string `json:"topology,omitempty"`
	Mode       string `json:"mode"`
	Symmetry   string `json:"symmetry"`
	Singletons bool   `json:"singletons"`
	MaxDepth   int    `json:"max_depth"`
	MaxStates  int    `json:"max_states"`
	ShardIndex int    `json:"shard_index"`
	ShardCount int    `json:"shard_count"`
}

// Totals mirrors the cumulative weighted fields of model.SweepReport over
// the completed orbits (ooc cannot import internal/model — the model
// package is the importer).
type Totals struct {
	Assignments    int   `json:"assignments"`
	Runs           int   `json:"runs"`
	States         int64 `json:"states"`
	Terminal       int64 `json:"terminal"`
	CycleRuns      int64 `json:"cycle_runs"`
	Violations     int64 `json:"violations"`
	HashCollisions int   `json:"hash_collisions"`
	AllOk          bool  `json:"all_ok"`
}

// Checkpoint is the full resumable-sweep state. Checkpoints written before
// the per-orbit ledger was dropped carry an "orbits" array as well; Load
// ignores it.
type Checkpoint struct {
	Version int       `json:"version"`
	Meta    SweepMeta `json:"meta"`
	Cursor  []int     `json:"cursor"` // last completed assignment (lex order)
	Totals  Totals    `json:"totals"`
}

// envelope wraps the payload with its checksum. RawMessage keeps the
// checksummed bytes exactly as written.
type envelope struct {
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// Save writes the checkpoint: the existing file (if any) rotates to
// path+".prev" first, then the new generation lands atomically. A crash at
// any point leaves at least one loadable generation on disk.
func Save(path string, cp *Checkpoint) error {
	data, err := encode(cp)
	if err != nil {
		return err
	}
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, path+".prev"); err != nil {
			return fmt.Errorf("ooc: rotate checkpoint: %w", err)
		}
	}
	return atomicio.WriteFile(path, data, 0o644)
}

// encode renders the file Save writes for cp.
func encode(cp *Checkpoint) ([]byte, error) {
	payload, err := json.Marshal(cp)
	if err != nil {
		return nil, fmt.Errorf("ooc: marshal checkpoint: %w", err)
	}
	// json.Marshal emits compact payload bytes, and payloadSum re-compacts
	// on load, so re-serialization of the envelope cannot drift the digest.
	data, err := json.Marshal(envelope{
		SHA256:  payloadSum(payload),
		Payload: payload,
	})
	if err != nil {
		return nil, fmt.Errorf("ooc: marshal checkpoint envelope: %w", err)
	}
	return append(data, '\n'), nil
}

// Load reads and verifies a checkpoint. When the primary file is missing,
// truncated, or fails its checksum, Load falls back to path+".prev" and
// reports fromPrev=true; when both generations are unusable it returns an
// error naming the corruption, so a resume can never proceed from
// silently-wrong counts.
func Load(path string) (cp *Checkpoint, fromPrev bool, err error) {
	cp, errMain := loadOne(path)
	if errMain == nil {
		return cp, false, nil
	}
	cp, errPrev := loadOne(path + ".prev")
	if errPrev == nil {
		return cp, true, nil
	}
	return nil, false, fmt.Errorf("ooc: no usable checkpoint: %v; fallback %s.prev: %v", errMain, path, errPrev)
}

func loadOne(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decode(path, data)
}

// decode verifies and decodes one generation's bytes; path only labels
// errors.
func decode(path string, data []byte) (*Checkpoint, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%s: corrupt envelope (torn write?): %w", path, err)
	}
	if payloadSum(env.Payload) != env.SHA256 {
		return nil, fmt.Errorf("%s: payload checksum mismatch (torn or tampered write)", path)
	}
	var cp Checkpoint
	if err := json.Unmarshal(env.Payload, &cp); err != nil {
		return nil, fmt.Errorf("%s: corrupt payload: %w", path, err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("%s: checkpoint version %d, this binary writes %d", path, cp.Version, CheckpointVersion)
	}
	return &cp, nil
}
