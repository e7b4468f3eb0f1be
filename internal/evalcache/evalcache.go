// Package evalcache memoizes the expensive immutable inputs of the eval
// and benchmark stack. Every experiment of the reproduction starts from
// the same deterministic world build — corpus.Generate over
// world.Default plus a full websim index — yet the seed harness rebuilt
// it from scratch for every one of the 15 Run* experiments and every
// benchmark iteration. This package builds each distinct world exactly
// once per process and hands out cheap views:
//
//   - Corpus(seed) returns the generated default-world corpus for a
//     seed, built at most once. The returned corpus is shared and MUST
//     be treated as immutable.
//   - Engine(seed, opts) returns a copy-on-write fork of the cached
//     base engine for (seed, opts.EnableSocial). Forks share the built
//     search indexes but have independent traffic counters, failure
//     sequences and serve-time options, and Publish on a fork is
//     invisible to the base and to sibling forks — so experiments that
//     mutate the web (drift, spam injection) still get isolation
//     without paying for a rebuild.
//   - InternSegment shares one resident copy of each trained memory
//     segment, and TrainAgent memoizes whole role trainings (events,
//     segments, report) for sessions and the eval harness alike, so an
//     identical training replays instead of rerunning the Auto-GPT loop.
//
// Both caches key on the seed only because eval experiments all run over
// world.Default; callers with bespoke worlds should build directly via
// corpus.Generate and websim.NewEngine.
package evalcache

import (
	"sync"

	"repro/internal/corpus"
	"repro/internal/memory"
	"repro/internal/websim"
	"repro/internal/world"
)

type baseKey struct {
	seed   uint64
	social bool
}

var (
	mu      sync.Mutex
	corpora = map[uint64]*corpus.Corpus{}
	bases   = map[baseKey]*websim.Engine{}

	segMu     sync.Mutex
	segments  = map[string]*memory.Segment{}
	segHits   int64
	segMisses int64
)

// Corpus returns the default-world corpus for seed, generating it at
// most once per process. The result is shared across all callers and
// must not be mutated.
func Corpus(seed uint64) *corpus.Corpus {
	mu.Lock()
	defer mu.Unlock()
	return corpusLocked(seed)
}

func corpusLocked(seed uint64) *corpus.Corpus {
	if c, ok := corpora[seed]; ok {
		return c
	}
	c := corpus.Generate(world.Default(), seed)
	corpora[seed] = c
	return c
}

// Engine returns a copy-on-write fork of the cached base engine for
// (seed, opts.EnableSocial), carrying the given serve-time options.
// The base — corpus plus built indexes — is constructed at most once
// per (seed, social) pair; every call pays only the fork cost.
func Engine(seed uint64, opts websim.Options) *websim.Engine {
	key := baseKey{seed: seed, social: opts.EnableSocial}
	mu.Lock()
	base, ok := bases[key]
	if !ok {
		base = websim.NewEngine(corpusLocked(seed), websim.Options{EnableSocial: opts.EnableSocial})
		bases[key] = base
	}
	mu.Unlock()
	return base.Fork(opts)
}

// InternSegment returns the canonical copy of a sealed memory segment,
// keyed by content fingerprint. The first caller's segment becomes
// canonical; later callers with byte-identical content get the same
// pointer back, so every session trained over the same (world, role,
// seed) shares one resident copy of the knowledge and its index instead
// of a million. Interned segments live for the process, exactly like the
// cached corpora. A nil segment interns to nil.
func InternSegment(seg *memory.Segment) *memory.Segment {
	if seg == nil {
		return nil
	}
	segMu.Lock()
	defer segMu.Unlock()
	if c, ok := segments[seg.Fingerprint()]; ok {
		segHits++
		return c
	}
	segMisses++
	segments[seg.Fingerprint()] = seg
	return seg
}

// LookupSegment returns the interned segment for a content fingerprint,
// or nil — the fast path of snapshot restore, which re-attaches segments
// by reference instead of re-reading their items from disk.
func LookupSegment(fingerprint string) *memory.Segment {
	segMu.Lock()
	defer segMu.Unlock()
	return segments[fingerprint]
}

// SegmentCacheStats is a residency snapshot of the segment intern table,
// JSON-shaped for GET /v1/stats.
type SegmentCacheStats struct {
	// Segments is the number of distinct interned segments.
	Segments int `json:"segments"`
	// Items is the total knowledge items across interned segments.
	Items int `json:"items"`
	// Refs is the total store references across interned segments — how
	// many live sessions share this memory.
	Refs int64 `json:"refs"`
	// ResidentBytes estimates the resident size of all interned segments
	// (items plus frozen indexes), counted once each regardless of how
	// many sessions attach them.
	ResidentBytes int64 `json:"resident_bytes"`
	// Hits and Misses count intern calls that found, respectively did not
	// find, an existing canonical segment.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// TrainHits counts session trainings replayed from the training memo
	// (see TrainOnce), TrainMisses those that ran the Auto-GPT loop, and
	// TrainEntries is how many trainings the memo holds.
	TrainHits    int64 `json:"train_hits"`
	TrainMisses  int64 `json:"train_misses"`
	TrainEntries int   `json:"train_entries"`
}

// SegmentStats returns a snapshot of the segment intern table and the
// training memo that feeds it.
func SegmentStats() SegmentCacheStats {
	trainMu.Lock()
	st := SegmentCacheStats{TrainHits: trainHits, TrainMisses: trainMisses, TrainEntries: trainLRU.Len()}
	trainMu.Unlock()
	segMu.Lock()
	defer segMu.Unlock()
	st.Segments, st.Hits, st.Misses = len(segments), segHits, segMisses
	for _, seg := range segments {
		st.Items += seg.Len()
		st.Refs += seg.Refs()
		st.ResidentBytes += seg.MemoryFootprint()
	}
	return st
}

// ResetSegmentCacheForTest empties the segment intern table, the
// training memo and their counters. Tests that assert on interning
// behavior call this to isolate themselves from segments interned by
// earlier tests in the process. The two reset together: a memo hit
// re-interns the segments it stored, and that must count as an intern
// hit exactly as the training it replaces would.
func ResetSegmentCacheForTest() {
	trainMu.Lock()
	trainByKey = map[string]*trainEntry{}
	trainLRU.Init()
	trainHits, trainMisses = 0, 0
	trainMu.Unlock()
	segMu.Lock()
	defer segMu.Unlock()
	segments = map[string]*memory.Segment{}
	segHits, segMisses = 0, 0
}
