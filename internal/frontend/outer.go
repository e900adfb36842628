package frontend

import (
	"fmt"
	"sync"

	"ripple/internal/cache"
	"ripple/internal/isa"
	"ripple/internal/program"
)

// The outer levels (L2, L3) are always LRU and a run only ever asks them
// whether a line hit, so they are modeled here directly rather than
// through cache.Cache. By default both start with the whole text
// installed (Options.ColdHierarchy); that prewarmed state depends only on
// the level geometry and the program's text lines, so it is computed once
// per distinct text, kept as an immutable snapshot, and read by every run
// through a private copy-on-touch overlay. A run therefore pays only for
// the sets it touches. docs/MODEL.md ("Outer hierarchy snapshot") gives
// the exactness argument and the memory law.

// invalidTag marks an empty way. Line addresses are byte addresses
// shifted right by the line size, so no real line reaches it.
const invalidTag = ^uint64(0)

// lruAccess probes one set of an LRU level and fills the line on a miss,
// following cache.Cache.Access under replacement.LRU exactly: a demand
// hit touches the line, a prefetch hit does not; a miss fills the first
// invalid way, else the way with the lowest stamp (the first on ties);
// every fill touches. row holds the set's ways' tags followed by their
// stamps. It reports whether the line hit.
func lruAccess(row []uint64, ways int, line uint64, prefetch bool, clock *uint64) bool {
	tags, stamps := row[:ways], row[ways:2*ways]
	for w, t := range tags {
		if t == line {
			if !prefetch {
				*clock++
				stamps[w] = *clock
			}
			return true
		}
	}
	victim := 0
	for w, t := range tags {
		if t == invalidTag {
			victim = w
			break
		}
		if stamps[w] < stamps[victim] {
			victim = w
		}
	}
	*clock++
	tags[victim], stamps[victim] = line, *clock
	return false
}

// levelImage is one outer level's immutable prewarmed state: set s is
// rows[s*2*ways : (s+1)*2*ways] in lruAccess's row layout, and clock is
// the LRU clock after the prewarm. A nil rows is the cold (all-invalid)
// level.
type levelImage struct {
	ways  int
	mask  uint64
	rows  []uint64
	clock uint64
}

func newLevelImage(cfg cache.Config) levelImage {
	return levelImage{ways: cfg.Ways, mask: uint64(cfg.Sets() - 1)}
}

// clear sizes the level for sets sets, every way invalid.
func (img *levelImage) clear(sets int) {
	stride := 2 * img.ways
	img.rows = make([]uint64, sets*stride)
	for s := 0; s < sets; s++ {
		row := img.rows[s*stride : (s+1)*stride]
		for w := 0; w < img.ways; w++ {
			row[w] = invalidTag
		}
	}
}

// install is a demand access during the prewarm.
func (img *levelImage) install(line uint64) {
	stride := 2 * img.ways
	s := int(line & img.mask)
	lruAccess(img.rows[s*stride:(s+1)*stride], img.ways, line, false, &img.clock)
}

// levelOverlay is one run's private view of a levelImage. A set's row is
// copied out of the image on its first access and lives in rows from
// then on; the run's clock starts at the image's, so every stamp it
// writes is newer than any in the image, as in one continuous LRU.
type levelOverlay struct {
	img   *levelImage
	slot  []int32 // per set: 1 + the set's row index in rows, 0 while untouched
	rows  []uint64
	clock uint64
}

// overlayRows presizes an overlay's private rows at its first touch: a
// 4096-block window touches about 450 L2 sets, and longer runs grow the
// slice by doubling.
const overlayRows = 512

func newLevelOverlay(img *levelImage, slot []int32) levelOverlay {
	return levelOverlay{img: img, slot: slot, clock: img.clock}
}

func (o *levelOverlay) access(line uint64, prefetch bool) bool {
	ways := o.img.ways
	stride := 2 * ways
	set := int(line & o.img.mask)
	r := int(o.slot[set]) - 1
	if r < 0 {
		if o.rows == nil {
			o.rows = make([]uint64, 0, min(len(o.slot), overlayRows)*stride)
		}
		r = len(o.rows) / stride
		o.slot[set] = int32(r + 1)
		if o.img.rows != nil {
			o.rows = append(o.rows, o.img.rows[set*stride:(set+1)*stride]...)
		} else {
			for w := 0; w < ways; w++ {
				o.rows = append(o.rows, invalidTag)
			}
			o.rows = append(o.rows, make([]uint64, ways)...)
		}
	}
	return lruAccess(o.rows[r*stride:(r+1)*stride], ways, line, prefetch, &o.clock)
}

// servedBy names the level that served an L1I miss.
type servedBy uint8

const (
	servedL2 servedBy = iota
	servedL3
	servedMem
)

// hierarchy is a run's state below the L1I: the L2 and L3, and the
// record of which lines have already missed (Result.Compulsory).
type hierarchy interface {
	// fill serves a line the L1I missed from the first level holding
	// it, filling it into every level that missed, and reports which
	// level that was.
	fill(line uint64, prefetch bool) servedBy
	// firstMiss records a demand miss and reports whether it is the
	// line's first in the run.
	firstMiss(line uint64) bool
}

// outer is the production hierarchy: overlays over a shared snapshot.
type outer struct {
	l2, l3 levelOverlay
	seen   lineSet
}

func (o *outer) fill(line uint64, prefetch bool) servedBy {
	if o.l2.access(line, prefetch) {
		return servedL2
	}
	if o.l3.access(line, prefetch) {
		return servedL3
	}
	return servedMem
}

func (o *outer) firstMiss(line uint64) bool { return o.seen.add(line) }

// newOuter validates the outer geometry and builds a run's hierarchy
// over the snapshot for prog's text (the cold snapshot when cold).
func newOuter(p Params, prog *program.Program, cold bool) (*outer, error) {
	if err := p.L2.Validate(); err != nil {
		return nil, fmt.Errorf("frontend: L2: %w", err)
	}
	if err := p.L3.Validate(); err != nil {
		return nil, fmt.Errorf("frontend: L3: %w", err)
	}
	var snap *snapshot
	if cold {
		snap = &snapshot{l2: newLevelImage(p.L2), l3: newLevelImage(p.L3)}
	} else {
		snap = snapshots.get(p, prog)
	}
	n2 := p.L2.Sets()
	slots := make([]int32, n2+p.L3.Sets())
	return &outer{
		l2:   newLevelOverlay(&snap.l2, slots[:n2:n2]),
		l3:   newLevelOverlay(&snap.l3, slots[n2:]),
		seen: newLineSet(prog),
	}, nil
}

// snapshot is the prewarmed L2/L3 for one text. It is never written
// after construction, so any number of runs may share it.
type snapshot struct{ l2, l3 levelImage }

func buildSnapshot(p Params, prog *program.Program) *snapshot {
	s := &snapshot{l2: newLevelImage(p.L2), l3: newLevelImage(p.L3)}
	s.l2.clear(p.L2.Sets())
	s.l3.clear(p.L3.Sets())
	var buf [16]uint64
	for i := range prog.Blocks {
		for _, l := range prog.Blocks[i].Lines(buf[:0]) {
			s.l2.install(l)
			s.l3.install(l)
		}
	}
	return s
}

// outerGeom is the geometry a snapshot is built for.
type outerGeom struct{ l2, l3 cache.Config }

// maxSnapshots bounds the snapshots kept for reuse. Shift-layout plans
// give every plan its own text, so the cache must not grow with the
// number of distinct layouts a process simulates. Four covers the
// experiment suite, which interleaves runs of several apps and
// geometries: `rippleexp -run all -j 2` over the nine catalog apps
// builds 716 snapshots for 1,523 runs with one entry, 154 with three
// and 139 with four. Each benchmark workload simulates a single text.
const maxSnapshots = 4

// snapshots is the process-wide snapshot cache.
var snapshots snapshotCache

// snapshotCache keeps the most recently built snapshots. Concurrent
// first uses of one text build it once: later callers wait for the
// first.
type snapshotCache struct {
	mu      sync.Mutex
	entries []*snapEntry // newest first, at most maxSnapshots
}

// snapEntry is one cached text. The prewarm installs every block's
// lines in block-ID order, a sequence fixed by the blocks' extents
// (address and encoded size), so the geometry and the extents identify
// the snapshot. They are set when the entry is inserted, so a caller
// can match an entry whose snapshot is still being built.
type snapEntry struct {
	geom  outerGeom
	addrs []uint64
	sizes []uint32
	ready chan struct{} // closed once snap is set
	snap  *snapshot
}

// sameText reports whether prog's blocks have exactly e's extents.
func (e *snapEntry) sameText(prog *program.Program) bool {
	if len(prog.Blocks) != len(e.addrs) {
		return false
	}
	for i := range prog.Blocks {
		b := &prog.Blocks[i]
		if b.Addr != e.addrs[i] || b.CodeBytes() != e.sizes[i] {
			return false
		}
	}
	return true
}

// get returns the snapshot for prog's text under p's outer geometry,
// building it on first use. Matching runs under the lock, so two first
// uses of one text cannot both miss; building and waiting do not.
func (c *snapshotCache) get(p Params, prog *program.Program) *snapshot {
	geom := outerGeom{l2: p.L2, l3: p.L3}
	c.mu.Lock()
	for _, e := range c.entries {
		if e.geom == geom && e.sameText(prog) {
			c.mu.Unlock()
			<-e.ready
			return e.snap
		}
	}
	e := &snapEntry{
		geom:  geom,
		addrs: make([]uint64, len(prog.Blocks)),
		sizes: make([]uint32, len(prog.Blocks)),
		ready: make(chan struct{}),
	}
	for i := range prog.Blocks {
		b := &prog.Blocks[i]
		e.addrs[i], e.sizes[i] = b.Addr, b.CodeBytes()
	}
	if len(c.entries) < maxSnapshots {
		c.entries = append(c.entries, nil)
	}
	copy(c.entries[1:], c.entries)
	c.entries[0] = e
	c.mu.Unlock()
	e.snap = buildSnapshot(p, prog)
	close(e.ready)
	return e.snap
}

// lineSet records which lines a run has seen: a dense bitset over the
// program text's line range, with a map for lines outside it.
type lineSet struct {
	lo    uint64
	bits  []uint64
	other map[uint64]struct{}
}

func newLineSet(prog *program.Program) lineSet {
	size := prog.TotalBytes()
	if size == 0 {
		return lineSet{}
	}
	lo, hi := isa.LineOf(prog.Base), isa.LineOf(prog.Base+size-1)
	return lineSet{lo: lo, bits: make([]uint64, (hi-lo)/64+1)}
}

// add inserts l and reports whether it was absent.
func (s *lineSet) add(l uint64) bool {
	if i := l - s.lo; l >= s.lo && i/64 < uint64(len(s.bits)) {
		w, m := &s.bits[i/64], uint64(1)<<(i%64)
		if *w&m != 0 {
			return false
		}
		*w |= m
		return true
	}
	if _, ok := s.other[l]; ok {
		return false
	}
	if s.other == nil {
		s.other = make(map[uint64]struct{})
	}
	s.other[l] = struct{}{}
	return true
}
