package ooc

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// A spilled set must agree with a plain map under any insertion sequence,
// across flush and compaction boundaries.
func TestSetMatchesMapOracle(t *testing.T) {
	for _, limit := range []int{1, 7, 64, 100000} {
		rng := rand.New(rand.NewSource(int64(limit)))
		s, err := NewSet(t.TempDir(), limit)
		if err != nil {
			t.Fatal(err)
		}
		oracle := make(map[Key]struct{})
		const ops = 5000
		for i := 0; i < ops; i++ {
			// Small key space forces plenty of duplicate Adds.
			k := Key{H1: uint64(rng.Intn(700)), H2: uint64(rng.Intn(5))}
			_, dup := oracle[k]
			oracle[k] = struct{}{}
			added, err := s.Add(k.H1, k.H2)
			if err != nil {
				t.Fatalf("limit=%d op=%d: %v", limit, i, err)
			}
			if added == dup {
				t.Fatalf("limit=%d op=%d key=%v: added=%t but oracle dup=%t", limit, i, k, added, dup)
			}
			if s.Len() != int64(len(oracle)) {
				t.Fatalf("limit=%d op=%d: Len=%d oracle=%d", limit, i, s.Len(), len(oracle))
			}
		}
		st := s.Stats()
		if limit == 1 && st.SpilledKeys == 0 {
			t.Errorf("limit=1 never spilled: %+v", st)
		}
		if limit == 1 && st.Compactions == 0 {
			t.Errorf("limit=1 never compacted: %+v", st)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
}

// Every key inserted before any number of flushes must still be found
// (i.e. re-Add reports duplicate) afterwards — including keys that landed
// in different runs and keys merged by compaction.
func TestSetDuplicatesAcrossRuns(t *testing.T) {
	s, err := NewSet(t.TempDir(), 10)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := make([]Key, 300)
	rng := rand.New(rand.NewSource(7))
	for i := range keys {
		keys[i] = Key{H1: rng.Uint64(), H2: rng.Uint64()}
		if added, err := s.Add(keys[i].H1, keys[i].H2); err != nil || !added {
			t.Fatalf("fresh add %d: added=%t err=%v", i, added, err)
		}
	}
	if s.Stats().Runs == 0 {
		t.Fatal("expected spilled runs")
	}
	for i, k := range keys {
		if added, err := s.Add(k.H1, k.H2); err != nil || added {
			t.Fatalf("re-add %d: added=%t err=%v", i, added, err)
		}
	}
	if s.Len() != int64(len(keys)) {
		t.Fatalf("Len=%d want %d", s.Len(), len(keys))
	}
}

// A probe that reads a run page reuses the set's page buffer: re-adding
// spilled keys (each passes its run's bloom filter and reads one page)
// allocates nothing, so a checker spilling at a high rate leaves no page
// garbage behind.
func TestSetPageReadsDoNotAllocate(t *testing.T) {
	s, err := NewSet(t.TempDir(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := make([]Key, 3000)
	rng := rand.New(rand.NewSource(3))
	for i := range keys {
		keys[i] = Key{H1: rng.Uint64(), H2: rng.Uint64()}
		if _, err := s.Add(keys[i].H1, keys[i].H2); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		k := keys[i%len(keys)]
		i++
		if added, err := s.Add(k.H1, k.H2); err != nil || added {
			t.Fatalf("re-add: added=%t err=%v", added, err)
		}
	})
	if s.Stats().PageReads == 0 {
		t.Fatal("no probe read a page")
	}
	if allocs != 0 {
		t.Errorf("re-adding a spilled key allocates %v/op, want 0", allocs)
	}
}

// A spill keeps the delta's table: refilling it with fresh keys up to
// the next spill allocates nothing, so a checker spilling at a high rate
// does not regrow (and discard) a table per run.
func TestSetRefillAfterSpillDoesNotAllocate(t *testing.T) {
	const limit = 1000
	s, err := NewSet(t.TempDir(), limit)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(5))
	first := Key{H1: rng.Uint64(), H2: rng.Uint64()}
	if _, err := s.Add(first.H1, first.H2); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < limit; i++ {
		if _, err := s.Add(rng.Uint64(), rng.Uint64()); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Runs != 1 || st.Resident != 0 {
		t.Fatalf("after %d adds: %+v, want one run and an empty delta", limit, st)
	}
	// A duplicate probe reads a page, allocating the set's page buffer
	// before the count starts.
	if added, err := s.Add(first.H1, first.H2); err != nil || added {
		t.Fatalf("re-add: added=%t err=%v", added, err)
	}
	keys := make([]Key, limit-1)
	for i := range keys {
		keys[i] = Key{H1: rng.Uint64(), H2: rng.Uint64()}
	}
	// Count the whole refill: AllocsPerRun's per-call average would round
	// a table's few growth allocations down to 0.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range keys {
		if added, err := s.Add(k.H1, k.H2); err != nil || !added {
			t.Fatalf("fresh add: added=%t err=%v", added, err)
		}
	}
	runtime.ReadMemStats(&after)
	if st := s.Stats(); st.Runs != 1 || st.Resident != limit-1 {
		t.Fatalf("refill spilled: %+v", st)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("refilling the delta after a spill made %d allocations, want 0", n)
	}
}

// Adjacent keys sharing an H1 lane must stay distinct on disk (full
// 128-bit records, not truncated ones).
func TestSetLaneCollisionsStayDistinct(t *testing.T) {
	s, err := NewSet(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for h2 := uint64(0); h2 < 64; h2++ {
		if added, err := s.Add(42, h2); err != nil || !added {
			t.Fatalf("h2=%d: added=%t err=%v", h2, added, err)
		}
	}
	if s.Len() != 64 {
		t.Fatalf("Len=%d want 64", s.Len())
	}
	for h2 := uint64(0); h2 < 64; h2++ {
		if added, err := s.Add(42, h2); err != nil || added {
			t.Fatalf("re-add h2=%d: added=%t err=%v", h2, added, err)
		}
	}
}

// Close must remove the run files it created.
func TestSetCloseRemovesRuns(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSet(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Add(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	left, err := filepath.Glob(filepath.Join(dir, "run-*.fps"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("run files left behind: %v", left)
	}
}

func TestNewSetRejectsMissingDir(t *testing.T) {
	if _, err := NewSet(filepath.Join(t.TempDir(), "nope"), 10); err == nil {
		t.Fatal("expected error for missing dir")
	}
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSet(f, 10); err == nil {
		t.Fatal("expected error for non-directory")
	}
}
