package ooc

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleCheckpoint(orbits int) *Checkpoint {
	cp := &Checkpoint{
		Version: CheckpointVersion,
		Meta: SweepMeta{
			Alg: "six", N: 6, Mode: "interleaved", Symmetry: "full",
			Singletons: true, MaxDepth: 256, MaxStates: 2_000_000,
			ShardIndex: 0, ShardCount: 1,
		},
		Totals: Totals{AllOk: true},
	}
	for i := 0; i < orbits; i++ {
		rec := OrbitRecord{
			Assignment: []int{1, 2, 3, 4, 5, 6 + i},
			Weight:     12,
			States:     1000 + i,
			Terminal:   10 + i,
		}
		cp.Orbits = append(cp.Orbits, rec)
		cp.Cursor = rec.Assignment
		cp.Totals.Runs++
		cp.Totals.Assignments += rec.Weight
		cp.Totals.States += int64(rec.Weight) * int64(rec.States)
		cp.Totals.Terminal += int64(rec.Weight) * int64(rec.Terminal)
	}
	return cp
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	want := sampleCheckpoint(3)
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, fromPrev, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if fromPrev {
		t.Error("primary checkpoint reported as recovered from .prev")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// Save must keep the previous generation as path+".prev".
func TestCheckpointRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	first := sampleCheckpoint(1)
	second := sampleCheckpoint(2)
	if err := Save(path, first); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, second); err != nil {
		t.Fatal(err)
	}
	prev, err := loadOne(path + ".prev")
	if err != nil {
		t.Fatalf("prev generation unreadable: %v", err)
	}
	if !reflect.DeepEqual(prev, first) {
		t.Fatalf("prev generation is not the first save:\ngot  %+v\nwant %+v", prev, first)
	}
}

// The torn-write satellite: a checkpoint truncated mid-record must be
// detected — never silently loaded — and Load must fall back to the last
// good generation.
func TestCheckpointTornWriteFallsBackToPrev(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	good := sampleCheckpoint(1)
	newer := sampleCheckpoint(2)
	if err := Save(path, good); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, newer); err != nil {
		t.Fatal(err)
	}
	// Tear the primary: keep a prefix that cuts through the payload.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	cp, fromPrev, err := Load(path)
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if !fromPrev {
		t.Fatal("torn primary was not reported as recovered from .prev")
	}
	if !reflect.DeepEqual(cp, good) {
		t.Fatalf("fallback did not return the last good checkpoint:\ngot  %+v\nwant %+v", cp, good)
	}
}

// A corrupted payload with an intact length (bit flip, not truncation)
// must fail the checksum, not parse as different counts.
func TestCheckpointBitFlipDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if err := Save(path, sampleCheckpoint(2)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a digit inside the payload's states count.
	s := string(data)
	i := strings.Index(s, "\"states\":")
	if i < 0 {
		t.Fatal("no states field found")
	}
	b := []byte(s)
	for j := i; j < len(b); j++ {
		if b[j] >= '1' && b[j] <= '8' {
			b[j]++
			break
		}
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadOne(path); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("bit flip not caught by checksum: %v", err)
	}
}

// With both generations corrupt, Load must refuse with an error rather
// than resuming from anything.
func TestCheckpointBothGenerationsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if err := os.WriteFile(path, []byte(`{"sha256":"00","payload":{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".prev", []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(path); err == nil {
		t.Fatal("corrupt checkpoint pair did not refuse the resume")
	}
}

// A missing checkpoint is an error (the caller decides whether that means
// "fresh start" or "refuse the -resume").
func TestCheckpointMissing(t *testing.T) {
	if _, _, err := Load(filepath.Join(t.TempDir(), "none.ckpt")); err == nil {
		t.Fatal("expected error for missing checkpoint")
	}
}

// Version drift refuses the resume.
func TestCheckpointVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cp := sampleCheckpoint(1)
	cp.Version = CheckpointVersion + 1
	if err := Save(path, cp); err != nil {
		t.Fatal(err)
	}
	if _, err := loadOne(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch not refused: %v", err)
	}
}

// savedBytes returns the exact file Save writes for cp.
func savedBytes(t testing.TB, cp *Checkpoint) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if err := Save(path, cp); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Every single-byte change to a valid checkpoint file is refused, or
// decodes to a checkpoint deeply equal to the original (a whitespace or
// key-case change JSON ignores): a damaged file never yields different
// counts.
func TestCheckpointSingleByteChanges(t *testing.T) {
	want := sampleCheckpoint(2)
	data := savedBytes(t, want)
	mut := make([]byte, len(data))
	accepted := 0
	for i := range data {
		for v := 0; v < 256; v++ {
			if byte(v) == data[i] {
				continue
			}
			copy(mut, data)
			mut[i] = byte(v)
			got, err := decode("mutant", mut)
			if err != nil {
				continue
			}
			accepted++
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("byte %d set to %q: loaded a different checkpoint\n got %+v\nwant %+v", i, byte(v), got, want)
			}
		}
	}
	t.Logf("%d bytes × 255 changes, %d accepted as equal", len(data), accepted)
}

// FuzzCheckpointLoad feeds arbitrary bytes to Load as a checkpoint file.
// Load must never panic, and whatever it accepts must re-encode, as Save
// writes it, to bytes that decode to an equal checkpoint. The re-encoding
// stays in memory: Save's fsync would cost more than the rest together.
func FuzzCheckpointLoad(f *testing.F) {
	data := savedBytes(f, sampleCheckpoint(2))
	f.Add(data)
	for _, n := range []int{0, 1, len(data) / 4, len(data) / 2, len(data) - 2, len(data) - 1} {
		f.Add(data[:n])
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, b []byte) {
		path := filepath.Join(dir, "in.ckpt")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, _, err := Load(path)
		if err != nil {
			return
		}
		again, err := encode(cp)
		if err != nil {
			t.Fatalf("re-encoding an accepted checkpoint: %v", err)
		}
		cp2, err := decode("re-encoded", again)
		if err != nil {
			t.Fatalf("decoding a re-encoded checkpoint: %v", err)
		}
		if !reflect.DeepEqual(cp, cp2) {
			t.Fatalf("re-encoding changed the checkpoint:\nfirst  %+v\nsecond %+v", cp, cp2)
		}
	})
}
