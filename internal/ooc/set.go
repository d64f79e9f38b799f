// Package ooc provides the out-of-core primitives behind resumable
// exhaustive model checking: a disk-spilled set of 128-bit state
// fingerprints (Set) and a checksummed, atomically-rotated sweep
// checkpoint file (Checkpoint).
//
// The Set is the classic external-memory visited table of explicit-state
// checkers: a bounded in-RAM delta hash table in front of immutable sorted
// runs on disk. Membership checks consult the delta first, then each run
// through a per-run bloom filter, a sparse page index, and a single 4 KiB
// ReadAt — so a fresh state costs one hash probe plus k bloom probes per
// run, and a duplicate costs at most one page read. When the delta reaches
// its memory limit it is sorted and sealed into a new run; when runs pile
// up they are merged into one by a streaming multiway merge, keeping
// lookup cost bounded. Records are exactly the two 64-bit fingerprint
// lanes of a Key, so spilling costs 16 bytes per state.
//
// The delta is a Table, the flat open-addressing table keyed by both
// lanes that also holds every in-RAM state table of internal/model, so a
// spilled check and an in-RAM one share one notion of state identity:
// the full 128-bit fingerprint.
package ooc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// Key is one 128-bit state fingerprint: the two hash lanes of
// sim.FingerprintHash128, compared lexicographically (h1 first).
type Key struct{ H1, H2 uint64 }

func keyLess(a, b Key) int {
	if a.H1 != b.H1 {
		if a.H1 < b.H1 {
			return -1
		}
		return 1
	}
	if a.H2 != b.H2 {
		if a.H2 < b.H2 {
			return -1
		}
		return 1
	}
	return 0
}

const (
	recordSize     = 16  // bytes per fingerprint on disk
	recordsPerPage = 256 // 4 KiB pages; one ReadAt per probe that passes the bloom
	// maxRuns bounds the number of live sorted runs; exceeding it triggers
	// a full merge so lookup cost stays O(maxRuns) bloom probes.
	maxRuns = 8
	// bloomBitsPerKey sizes each run's bloom filter (~1% false positives
	// at 10 bits/key with 4 probes).
	bloomBitsPerKey = 10
	bloomProbes     = 4
)

// DefaultMemLimit is the delta-table bound used when a caller passes a
// non-positive limit: ~4M resident fingerprints before the first spill.
// The delta grows by doubling at half load, so at the limit it holds them
// in 2^23 slots of 16 bytes, 128 MiB, and its last doubling briefly holds
// the 64 MiB table it replaces as well.
const DefaultMemLimit = 4_000_000

// Set is a disk-spilled insert-only set of 128-bit fingerprints. Not safe
// for concurrent use; the model checker gives each worker its own Set.
type Set struct {
	dir   string
	limit int
	delta Table[struct{}] // grows on demand; a spill empties it, keeping its capacity
	runs  []*runFile
	n     int64
	seq   int
	page  []byte // runContains' read buffer, reused across probes

	// stats
	spilled     int64 // records sealed into runs (cumulative, pre-merge)
	compactions int
	pageReads   int64
}

// Stats reports a Set's out-of-core activity for logs and experiments.
type Stats struct {
	Resident    int   // fingerprints in the in-RAM delta
	Runs        int   // live sorted runs on disk
	SpilledKeys int64 // fingerprints sealed to disk (cumulative)
	Compactions int   // multiway merges performed
	PageReads   int64 // 4 KiB probe reads served from disk
}

// runFile is one immutable sorted run: raw 16-byte records, plus an
// in-RAM sparse index (first key of every page) and a bloom filter.
type runFile struct {
	f     *os.File
	path  string
	count int
	index []Key    // index[i] = first key of page i
	bloom []uint64 // bit set, power-of-two length
}

// NewSet creates a spilled set storing its runs under dir (which must
// exist). memLimit bounds the in-RAM delta (non-positive selects
// DefaultMemLimit). The caller owns dir's lifecycle; Close removes only
// the run files the Set created.
func NewSet(dir string, memLimit int) (*Set, error) {
	if memLimit <= 0 {
		memLimit = DefaultMemLimit
	}
	if st, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("ooc: spill dir: %w", err)
	} else if !st.IsDir() {
		return nil, fmt.Errorf("ooc: spill dir %s: not a directory", dir)
	}
	return &Set{dir: dir, limit: memLimit}, nil
}

// Add inserts the fingerprint if absent and reports whether it was newly
// added. An I/O error leaves the set usable for Close but with undefined
// membership; callers must stop exploring.
func (s *Set) Add(h1, h2 uint64) (bool, error) {
	k := Key{h1, h2}
	slot, found, same := s.delta.find(k)
	if found {
		return false, nil
	}
	for _, r := range s.runs {
		hit, err := s.runContains(r, k)
		if err != nil {
			return false, err
		}
		if hit {
			return false, nil
		}
	}
	s.delta.insertAt(slot, k, struct{}{}, same)
	s.n++
	if s.delta.Len() >= s.limit {
		if err := s.flush(); err != nil {
			return false, err
		}
	}
	return true, nil
}

// Len returns the number of distinct fingerprints in the set.
func (s *Set) Len() int64 { return s.n }

// Stats returns a snapshot of the set's spill activity.
func (s *Set) Stats() Stats {
	return Stats{
		Resident:    s.delta.Len(),
		Runs:        len(s.runs),
		SpilledKeys: s.spilled,
		Compactions: s.compactions,
		PageReads:   s.pageReads,
	}
}

// Close releases file handles and removes the set's run files.
func (s *Set) Close() error {
	var first error
	for _, r := range s.runs {
		if err := r.f.Close(); err != nil && first == nil {
			first = err
		}
		if err := os.Remove(r.path); err != nil && first == nil {
			first = err
		}
	}
	s.runs = nil
	s.delta = Table[struct{}]{}
	return first
}

// flush seals the delta into a new sorted run, then merges all runs into
// one when too many have accumulated. The delta's own key array is
// compacted and sorted in place, so a spill allocates no key slice.
func (s *Set) flush() error {
	d := &s.delta
	if d.Len() == 0 {
		return nil
	}
	keys := d.keys[:0]
	for _, k := range d.keys {
		if k != (Key{}) {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, keyLess)
	r, err := s.writeRun(func(yield func(Key) error) error {
		if d.hasZero { // the least key, stored out of band
			if err := yield(Key{}); err != nil {
				return err
			}
		}
		for _, k := range keys {
			if err := yield(k); err != nil {
				return err
			}
		}
		return nil
	}, d.Len())
	if err != nil {
		return err
	}
	s.runs = append(s.runs, r)
	s.spilled += int64(d.Len())
	// Reset keeps the table's capacity, so the next delta refills it
	// without regrowing from empty: a spill leaves no table garbage.
	d.Reset()
	if len(s.runs) > maxRuns {
		return s.compact()
	}
	return nil
}

// writeRun streams count sorted keys from src into a new immutable run,
// building the page index and bloom filter along the way.
func (s *Set) writeRun(src func(yield func(Key) error) error, count int) (*runFile, error) {
	s.seq++
	path := filepath.Join(s.dir, fmt.Sprintf("run-%06d.fps", s.seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ooc: create run: %w", err)
	}
	r := &runFile{
		f:     f,
		path:  path,
		index: make([]Key, 0, count/recordsPerPage+1),
		bloom: make([]uint64, bloomWords(count)),
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	var rec [recordSize]byte
	i := 0
	err = src(func(k Key) error {
		if i%recordsPerPage == 0 {
			r.index = append(r.index, k)
		}
		bloomSet(r.bloom, k)
		binary.LittleEndian.PutUint64(rec[0:8], k.H1)
		binary.LittleEndian.PutUint64(rec[8:16], k.H2)
		i++
		_, werr := bw.Write(rec[:])
		return werr
	})
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("ooc: write run: %w", err)
	}
	r.count = i
	return r, nil
}

// runContains probes one run for k: bloom filter, sparse index, then a
// single page read and binary search.
func (s *Set) runContains(r *runFile, k Key) (bool, error) {
	if !bloomHas(r.bloom, k) {
		return false, nil
	}
	// Find the last page whose first key is <= k.
	lo, hi := 0, len(r.index)
	for lo < hi {
		mid := (lo + hi) / 2
		if keyLess(r.index[mid], k) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	page := lo - 1
	if page < 0 {
		return false, nil
	}
	start := page * recordsPerPage
	n := r.count - start
	if n > recordsPerPage {
		n = recordsPerPage
	}
	if s.page == nil {
		s.page = make([]byte, recordsPerPage*recordSize)
	}
	buf := s.page[:n*recordSize]
	if _, err := r.f.ReadAt(buf, int64(start)*recordSize); err != nil {
		return false, fmt.Errorf("ooc: read run page: %w", err)
	}
	s.pageReads++
	lo, hi = 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		mk := Key{
			H1: binary.LittleEndian.Uint64(buf[mid*recordSize:]),
			H2: binary.LittleEndian.Uint64(buf[mid*recordSize+8:]),
		}
		switch keyLess(mk, k) {
		case -1:
			lo = mid + 1
		case 1:
			hi = mid
		default:
			return true, nil
		}
	}
	return false, nil
}

// compact merges every live run into one by a streaming multiway merge.
// Runs never share keys (Add dedups against all runs before inserting),
// so the merge is a pure interleave.
func (s *Set) compact() error {
	total := 0
	readers := make([]*runReader, len(s.runs))
	for i, r := range s.runs {
		total += r.count
		rd, err := newRunReader(r)
		if err != nil {
			return err
		}
		readers[i] = rd
	}
	merged, err := s.writeRun(func(yield func(Key) error) error {
		for {
			best := -1
			for i, rd := range readers {
				if !rd.ok {
					continue
				}
				if best == -1 || keyLess(rd.cur, readers[best].cur) < 0 {
					best = i
				}
			}
			if best == -1 {
				return nil
			}
			if err := yield(readers[best].cur); err != nil {
				return err
			}
			if err := readers[best].next(); err != nil {
				return err
			}
		}
	}, total)
	if err != nil {
		return err
	}
	old := s.runs
	s.runs = []*runFile{merged}
	s.compactions++
	var first error
	for _, r := range old {
		if err := r.f.Close(); err != nil && first == nil {
			first = err
		}
		if err := os.Remove(r.path); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// runReader streams one run's records in order during compaction.
type runReader struct {
	br  *bufio.Reader
	rec [recordSize]byte // next's read buffer; a local would escape per record
	cur Key
	ok  bool
}

func newRunReader(r *runFile) (*runReader, error) {
	if _, err := r.f.Seek(0, 0); err != nil {
		return nil, fmt.Errorf("ooc: rewind run: %w", err)
	}
	rd := &runReader{br: bufio.NewReaderSize(r.f, 1<<16)}
	return rd, rd.next()
}

func (rd *runReader) next() error {
	rec := rd.rec[:]
	if _, err := io.ReadFull(rd.br, rec); err != nil {
		rd.ok = false
		if err == io.EOF {
			return nil
		}
		return fmt.Errorf("ooc: read run: %w", err)
	}
	rd.cur = Key{
		H1: binary.LittleEndian.Uint64(rec[0:8]),
		H2: binary.LittleEndian.Uint64(rec[8:16]),
	}
	rd.ok = true
	return nil
}

// bloomWords sizes a filter at bloomBitsPerKey bits per key, rounded up
// to a power of two of 64-bit words (min 1).
func bloomWords(count int) int {
	bits := count * bloomBitsPerKey
	words := 1
	for words*64 < bits {
		words *= 2
	}
	return words
}

// bloomProbe derives the i-th probe position (Kirsch–Mitzenmacher: two
// independent lanes combined linearly give k independent-enough probes).
func bloomProbe(k Key, i int) uint64 {
	return k.H1 + uint64(i)*(k.H2|1)
}

func bloomSet(bloom []uint64, k Key) {
	mask := uint64(len(bloom)*64 - 1)
	for i := 0; i < bloomProbes; i++ {
		b := bloomProbe(k, i) & mask
		bloom[b/64] |= 1 << (b % 64)
	}
}

func bloomHas(bloom []uint64, k Key) bool {
	mask := uint64(len(bloom)*64 - 1)
	for i := 0; i < bloomProbes; i++ {
		b := bloomProbe(k, i) & mask
		if bloom[b/64]&(1<<(b%64)) == 0 {
			return false
		}
	}
	return true
}
