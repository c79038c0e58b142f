package engine

import (
	"bytes"
	"sort"

	"xpointdb/internal/keys"
	"xpointdb/internal/manifest"
)

// compactionPicker is the compaction POLICY: given a version (and the
// live snapshots), decide what to compact next and in what shape —
// which files, whether the job is a pure trivial move, and how the key
// range splits into parallel sub-ranges. It never does I/O and never
// looks at db state beyond what is passed in, so policy changes stay
// local to this file (KV-Tandem's policy/mechanism split). All methods
// are called with db.mu held; picked compactions carry a reference on
// their base version.
type compactionPicker struct {
	opts *Options

	// cursor[l] is the largest user key of the last finished level-l
	// compaction; the next level-l pick resumes strictly after it,
	// wrapping to the start when nothing follows (RocksDB's
	// per-level compact cursor). Key-based, not index-based: file
	// slices change under a stored index, which can re-pick the same
	// file while its neighbors starve.
	cursor [manifest.NumLevels][]byte
}

func newCompactionPicker(opts *Options) *compactionPicker {
	return &compactionPicker{opts: opts}
}

// subrange is one disjoint slice of a compaction's user-key space:
// keys in [start, end), nil meaning unbounded. inputs are the
// participating files that can hold keys in the range (a wide file
// appears in several subranges; each reads only its window of it).
type subrange struct {
	start, end []byte
	inputs     []*manifest.FileMeta
}

// pick selects the most urgent compaction against v, or nil. The
// returned compaction has its shape (trivial move / sub-ranges)
// resolved and base referenced.
func (p *compactionPicker) pick(v *manifest.Version, snaps []uint64) *compaction {
	// Level-0: file-count triggered (the paper's central pressure
	// source — L0 files accumulate per flush and are merged into L1).
	if v.NumFiles(0) >= p.opts.L0CompactionTrigger {
		inputs := append([]*manifest.FileMeta(nil), v.Files[0]...)
		smallest, largest := keyRangeOf(inputs)
		c := &compaction{
			level:       0,
			outputLevel: 1,
			score:       float64(v.NumFiles(0)) / float64(p.opts.L0CompactionTrigger),
			inputs:      inputs,
			overlaps:    v.Overlaps(1, smallest, largest),
			base:        v,
			snaps:       snaps,
		}
		// Pin the base version for the whole run: a concurrent flush
		// install may drop the current version, and with it the last
		// reference to the input files, while the merge is reading them.
		c.base.Ref()
		return p.finalize(c)
	}

	// Deeper levels: size triggered, worst score first.
	bestLevel, bestScore := -1, 1.0
	for l := 1; l < manifest.NumLevels-1; l++ {
		if v.NumFiles(l) == 0 {
			continue
		}
		score := float64(v.LevelBytes(l)) / float64(levelTargetBytes(p.opts, l))
		if score > bestScore {
			bestScore, bestLevel = score, l
		}
	}
	if bestLevel < 0 {
		return nil
	}
	in := p.nextAtLevel(v, bestLevel)
	smallest, largest := keyRangeOf([]*manifest.FileMeta{in})
	c := &compaction{
		level:       bestLevel,
		outputLevel: bestLevel + 1,
		score:       bestScore,
		inputs:      []*manifest.FileMeta{in},
		overlaps:    v.Overlaps(bestLevel+1, smallest, largest),
		base:        v,
		snaps:       snaps,
	}
	c.base.Ref() // see the L0 pick above
	return p.finalize(c)
}

// nextAtLevel returns the round-robin choice at a level ≥ 1: the first
// file whose largest user key sorts strictly after the cursor, wrapping
// to the first file when the cursor is past everything. Files at these
// levels are sorted and disjoint, so this resumes exactly after the
// last compacted range no matter how the slice shifted since.
func (p *compactionPicker) nextAtLevel(v *manifest.Version, level int) *manifest.FileMeta {
	files := v.Files[level]
	cur := p.cursor[level]
	if cur != nil {
		for _, f := range files {
			if keys.CompareUserKeys(keys.UserKey(f.Largest), cur) > 0 {
				return f
			}
		}
	}
	return files[0]
}

// pickRange builds a compaction over the level's files intersecting
// the user-key range [start, limit] (manual CompactRange). Returns nil
// when the level holds nothing in range.
func (p *compactionPicker) pickRange(v *manifest.Version, level int, start, limit []byte, snaps []uint64) *compaction {
	var inputs []*manifest.FileMeta
	if level == 0 {
		// L0 files overlap each other: take them all, as the L0 pick
		// does, so no older version of a key is left above a newer one.
		for _, f := range v.Files[0] {
			if rangesOverlap(keys.UserKey(f.Smallest), keys.UserKey(f.Largest), start, limit) {
				inputs = append([]*manifest.FileMeta(nil), v.Files[0]...)
				break
			}
		}
	} else {
		for _, f := range v.Files[level] {
			if rangesOverlap(keys.UserKey(f.Smallest), keys.UserKey(f.Largest), start, limit) {
				inputs = append(inputs, f)
			}
		}
	}
	if len(inputs) == 0 {
		return nil
	}
	smallest, largest := keyRangeOf(inputs)
	c := &compaction{
		level:       level,
		outputLevel: level + 1,
		score:       1.0,
		inputs:      inputs,
		overlaps:    v.Overlaps(level+1, smallest, largest),
		base:        v,
		snaps:       snaps,
	}
	c.base.Ref()
	return p.finalize(c)
}

// pickRepair builds the salvage compaction for one quarantined file:
// rewrite it (plus anything its key range shadows) so readable entries
// survive and damaged blocks are dropped. Repair runs exactly as the
// recovery worker shaped it before the picker existed: single range,
// never a trivial move (a damaged file must be rewritten, not
// relocated), recovery bypass at install.
func (p *compactionPicker) pickRepair(v *manifest.Version, level int, f *manifest.FileMeta, snaps []uint64) *compaction {
	c := &compaction{
		level:    level,
		score:    1.0,
		base:     v,
		snaps:    snaps,
		recovery: true,
	}
	if level == 0 {
		// L0 files overlap arbitrarily; rewriting one in isolation
		// could surface older versions. Take all of L0 into L1.
		c.outputLevel = 1
		c.inputs = append([]*manifest.FileMeta(nil), v.Files[0]...)
		smallest, largest := keyRangeOf(c.inputs)
		c.overlaps = v.Overlaps(1, smallest, largest)
	} else if level == manifest.NumLevels-1 {
		// Bottom level: rewrite in place.
		c.outputLevel = level
		c.inputs = []*manifest.FileMeta{f}
	} else {
		c.outputLevel = level + 1
		c.inputs = []*manifest.FileMeta{f}
		smallest, largest := keyRangeOf(c.inputs)
		c.overlaps = v.Overlaps(level+1, smallest, largest)
	}
	c.base.Ref()
	// Deliberately not finalized: no trivial move, no splitting —
	// salvage reads damaged files and must keep the drop-bad-blocks
	// merge loop in one deterministic pass.
	return c
}

// noteCompacted records a finished level-l job so the next pick at
// that level resumes strictly after it. Called under db.mu only when
// the job installed successfully; a failed job retries the same range.
func (p *compactionPicker) noteCompacted(c *compaction) {
	if c.level < 1 || len(c.inputs) == 0 {
		return
	}
	_, largest := keyRangeOf(c.inputs)
	p.cursor[c.level] = append([]byte(nil), largest...)
}

// finalize resolves the picked compaction's execution shape: a trivial
// move when no merging is needed, otherwise up to MaxSubcompactions
// disjoint key sub-ranges.
func (p *compactionPicker) finalize(c *compaction) *compaction {
	if p.isTrivialMove(c) {
		c.trivialMove = true
		return c
	}
	c.subs = splitSubranges(c, p.opts.MaxSubcompactions)
	return c
}

// isTrivialMove reports whether c can be executed as a pure manifest
// edit: the inputs land in the output level byte-for-byte unchanged.
// Requires zero output-level overlap (nothing to merge with) and a
// real level change. Dropping deletes or shadowed versions is an
// optimization, not an obligation, so skipping the rewrite is always
// correct — the keys' relative order and visibility are unchanged.
func (p *compactionPicker) isTrivialMove(c *compaction) bool {
	if c.recovery || len(c.overlaps) > 0 || c.outputLevel == c.level || len(c.inputs) == 0 {
		return false
	}
	if c.level == 0 && len(c.inputs) > 1 {
		// L0 files may overlap each other; moving several into L1
		// together could break L1's disjointness invariant.
		return false
	}
	for _, f := range c.inputs {
		if f.Quarantined() {
			// A damaged file must be rewritten, not relocated.
			return false
		}
	}
	return true
}

// splitSubranges partitions the compaction's user-key space into at
// most maxSub disjoint [start, end) sub-ranges, splitting only at
// participating files' smallest user keys. Splitting at file
// boundaries keeps every version of one user key in exactly one
// sub-range (files never split a user key across themselves — the
// engine's own output invariant), so each sub-merge sees all versions
// of every key it owns and snapshot-stripe logic stays local.
func splitSubranges(c *compaction, maxSub int) []subrange {
	all := make([]*manifest.FileMeta, 0, len(c.inputs)+len(c.overlaps))
	all = append(all, c.inputs...)
	all = append(all, c.overlaps...)
	if maxSub <= 1 || len(all) <= 1 {
		return []subrange{{inputs: all}}
	}

	// Candidate split points: each file's smallest user key, minus the
	// global minimum (a split there would leave an empty first range).
	globalMin, _ := keyRangeOf(all)
	seen := make(map[string]bool, len(all))
	cands := make([][]byte, 0, len(all))
	for _, f := range all {
		k := keys.UserKey(f.Smallest)
		if bytes.Equal(k, globalMin) || seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		cands = append(cands, k)
	}
	sort.Slice(cands, func(i, j int) bool { return bytes.Compare(cands[i], cands[j]) < 0 })

	k := maxSub
	if k > len(cands)+1 {
		k = len(cands) + 1
	}
	if k <= 1 {
		return []subrange{{inputs: all}}
	}
	bounds := make([][]byte, 0, k-1)
	for j := 1; j < k; j++ {
		// Evenly spaced over the candidates; floor(j·m/k) is strictly
		// increasing for k ≤ m+1, so the bounds are distinct.
		bounds = append(bounds, cands[j*len(cands)/k])
	}

	subs := make([]subrange, 0, k)
	for i := 0; i < k; i++ {
		var s, e []byte
		if i > 0 {
			s = bounds[i-1]
		}
		if i < k-1 {
			e = bounds[i]
		}
		var in []*manifest.FileMeta
		for _, f := range all {
			if e != nil && keys.CompareUserKeys(keys.UserKey(f.Smallest), e) >= 0 {
				continue
			}
			if s != nil && keys.CompareUserKeys(keys.UserKey(f.Largest), s) < 0 {
				continue
			}
			in = append(in, f)
		}
		if len(in) == 0 {
			continue
		}
		subs = append(subs, subrange{start: s, end: e, inputs: in})
	}
	return subs
}

// rangesOverlap reports whether user-key ranges [as, al] and [bs, bl]
// intersect; nil bs/bl mean unbounded on that side.
func rangesOverlap(as, al, bs, bl []byte) bool {
	if bl != nil && bytes.Compare(as, bl) > 0 {
		return false
	}
	if bs != nil && bytes.Compare(al, bs) < 0 {
		return false
	}
	return true
}

// levelTargetBytes returns the size target for a level ≥ 1 given opts
// (the picker-side twin of DB.targetLevelBytes).
func levelTargetBytes(opts *Options, level int) int64 {
	t := opts.BaseLevelBytes
	for l := 1; l < level; l++ {
		t *= levelMultiplier
	}
	return t
}
