// Compact configuration fingerprints. Engine.Fingerprint builds a canonical
// string; for the model checker's visited sets that string is pure overhead
// — it is hashed by the map and thrown away. FingerprintHash covers the
// same information with a 128-bit hash without materializing anything, the
// explicit-state-checker trick (cf. SPIN's state compression) that makes
// exhaustive exploration allocation-lean: each node's content is digested
// once and cached until a step touches the node, and a fingerprint folds
// the n cached digests.
package sim

import "fmt"

// Hashable is optionally implemented by node state machines and register
// value types to let FingerprintHash encode them without reflection or
// allocation. Implement it on the pointer receiver — the engine hashes
// register values through a pointer, so value receivers would force a
// boxing allocation per register.
//
// HashFingerprint must feed every field that Engine.Fingerprint's "%v"
// rendering exposes: two states must hash equal exactly when their string
// fingerprints are equal. Types that do not implement Hashable are hashed
// through fmt (correct, but allocating).
type Hashable interface {
	HashFingerprint(h *FPHasher)
}

// FPHasher streams words into two independent 64-bit lanes. Absorbing a
// word costs one multiply-xorshift per lane; each lane has its own basis,
// odd multiplier, shift and finalizer, so a collision on lane A says
// nothing about lane B. The pair forms the 128-bit compact fingerprint,
// the key of every model-checker state table (ooc.Table): lane A picks
// the slot, and both lanes decide equality.
type FPHasher struct {
	a, b uint64
}

const (
	laneAOffset = 0xCBF29CE484222325 // the FNV-1a 64-bit offset basis
	laneBOffset = 0x243F6A8885A308D3 // leading hex digits of π
	laneAMul    = 0x9E3779B97F4A7C15 // 2^64/φ, odd
	laneBMul    = 0xD6E8FEB86659FD93 // odd, unrelated to lane A's
)

// Reset restores the initial state, allowing reuse across fingerprints.
func (h *FPHasher) Reset() { h.a, h.b = laneAOffset, laneBOffset }

// absorb mixes word a into lane A and word b into lane B.
func (h *FPHasher) absorb(a, b uint64) {
	h.a = (h.a ^ a) * laneAMul
	h.a ^= h.a >> 32
	h.b = (h.b ^ b) * laneBMul
	h.b ^= h.b >> 29
}

// HashUint64 absorbs one word into both lanes.
func (h *FPHasher) HashUint64(v uint64) { h.absorb(v, v) }

// HashByte absorbs one byte as a word.
func (h *FPHasher) HashByte(c byte) { h.absorb(uint64(c), uint64(c)) }

// HashInt absorbs an int.
func (h *FPHasher) HashInt(v int) { h.HashUint64(uint64(v)) }

// HashBool absorbs a bool as one word.
func (h *FPHasher) HashBool(v bool) {
	if v {
		h.HashUint64(1)
	} else {
		h.HashUint64(0)
	}
}

// HashString absorbs a length-delimited string.
func (h *FPHasher) HashString(s string) {
	h.HashInt(len(s))
	for i := 0; i < len(s); i++ {
		h.HashByte(s[i])
	}
}

// Write implements io.Writer so fmt can stream into the hasher — the
// fallback path for types without a Hashable implementation.
func (h *FPHasher) Write(p []byte) (int, error) {
	for _, c := range p {
		h.HashByte(c)
	}
	return len(p), nil
}

// Sum128 returns both lanes, each through its own finalizer (splitmix64's
// for lane A, murmur3's fmix64 for lane B) so that every output bit
// depends on every absorbed word: the ooc bloom probes mask the lanes'
// low bits.
func (h *FPHasher) Sum128() (uint64, uint64) {
	a := h.a
	a = (a ^ a>>30) * 0xBF58476D1CE4E5B9
	a = (a ^ a>>27) * 0x94D049BB133111EB
	a ^= a >> 31
	b := h.b
	b = (b ^ b>>33) * 0xFF51AFD7ED558CCD
	b = (b ^ b>>33) * 0xC4CEB9FE1A85EC53
	b ^= b >> 33
	return a, b
}

// FingerprintHash returns a compact 64-bit fingerprint of the
// configuration, covering exactly the state Fingerprint covers: register
// contents, node states, termination/crash flags, and — only for processes
// armed with a CrashAfter limit — the activation count and limit, since
// distance-to-crash is then part of the transition function. Two engines
// with equal string fingerprints always have equal hashes; the converse
// holds up to a collision of both 64-bit lanes at once, the one case in
// which the model checker conflates two configurations (see internal/ooc).
//
// The hash folds the engine's cached per-node digests (see digests), so a
// warmed-up engine fingerprints without allocating when every node and
// register type implements Hashable.
func (e *Engine[V]) FingerprintHash() uint64 {
	a, _ := e.FingerprintHash128()
	return a
}

// FingerprintHash128 returns both lanes of the compact fingerprint.
func (e *Engine[V]) FingerprintHash128() (uint64, uint64) {
	return e.FingerprintHashRotated(0)
}

// FingerprintHashRotated returns both lanes of the compact fingerprint of
// the configuration relabeled by the cycle rotation i ↦ i-k mod n: it
// folds the node digests in the order of processes k, k+1, …, k-1 (mod
// n). FingerprintHashRotated(0) is FingerprintHash128. Its only caller
// with k ≠ 0 is CanonicalFingerprintHash128 (see canon.go).
func (e *Engine[V]) FingerprintHashRotated(k int) (uint64, uint64) {
	d := e.digests()
	h := &e.fph
	h.Reset()
	for i := k; i < len(d); i++ {
		h.absorb(d[i].a, d[i].b)
	}
	for i := 0; i < k; i++ {
		h.absorb(d[i].a, d[i].b)
	}
	return h.Sum128()
}

// digest is one node's two-lane content digest. Both lanes are kept so
// that the fingerprint's lane B folds lane-B digests: were lane B folded
// from lane-A digests, two nodes whose lane-A digests collide would
// collide on both lanes at once, and lane B could no longer detect
// lane-A collisions.
type digest struct{ a, b uint64 }

// digests refreshes the stale entries of the engine's digest cache and
// returns it: entry i digests process i's position-free content — its
// register, node state, done and crashed flags, output, and any armed
// crash limit with its activation count. Everything that changes that
// content (observe, CrashAfter, Crash, SeedRegisters, Abandon) marks the
// process stale, and any new code that writes a process's regs, nodes,
// done, crashed, outputs, acts or limits entry must do the same, or
// fingerprints miss the change and the model checker merges distinct
// states; TestDigestCacheCoherence drives every mutator against a freshly
// built engine. The cache pays for itself: recomputing all n digests on
// every call measured 22% lower check-c7-spill throughput and 30% higher
// latency (2-CPU Xeon, perfbench).
func (e *Engine[V]) digests() []digest {
	h := &e.fph
	for i, stale := range e.stale {
		if !stale {
			continue
		}
		h.Reset()
		if e.regs[i].Present {
			h.HashByte(1)
			HashValue(h, &e.regs[i].Val)
		} else {
			h.HashByte(0)
		}
		HashAny(h, any(e.nodes[i]))
		h.HashBool(e.done[i])
		h.HashBool(e.crashed[i])
		h.HashInt(e.outputs[i])
		if e.limits[i] >= 0 {
			h.HashByte(1)
			h.HashInt(e.acts[i])
			h.HashInt(e.limits[i])
		}
		e.dig[i].a, e.dig[i].b = h.Sum128()
		e.stale[i] = false
	}
	return e.dig
}

// HashAny encodes v through its Hashable implementation when present, and
// through fmt otherwise. The fmt path allocates but keeps correctness for
// node types that have not (yet) implemented Hashable.
func HashAny(h *FPHasher, v any) {
	if hv, ok := v.(Hashable); ok {
		hv.HashFingerprint(h)
		return
	}
	fmt.Fprintf(h, "%v", v)
}

// HashValue is HashAny for values addressed through a pointer, such as
// registers, so Hashable implementations avoid boxing; the fmt fallback
// dereferences, so even non-struct value types are encoded by content,
// never by address.
func HashValue[V any](h *FPHasher, v *V) {
	if hv, ok := any(v).(Hashable); ok {
		hv.HashFingerprint(h)
		return
	}
	fmt.Fprintf(h, "%v", *v)
}
