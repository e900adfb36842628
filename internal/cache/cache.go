// Package cache implements the set-associative caches of the simulated
// instruction hierarchy. The replacement policy is pluggable (see Policy);
// the cache itself only manages tags, valid/prefetch bits, and the
// bookkeeping Ripple needs: explicit invalidation (the proposed
// `invalidate` instruction), LRU demotion (the Sec. IV variant), and
// attribution of fills to hint-freed ways (replacement coverage).
package cache

import "fmt"

// AccessInfo carries the metadata replacement policies may condition on.
type AccessInfo struct {
	// Line is the cache-line address (byte address >> 6).
	Line uint64
	// Sig is a signature for predictor-based policies; for instruction
	// lines this is derived from the accessed line itself (the I-cache
	// analogue of the load PC used by D-cache policies).
	Sig uint64
	// Prefetch marks prefetcher-initiated accesses.
	Prefetch bool
}

// Policy decides victims and observes cache events. Implementations live
// in internal/replacement. Methods are invoked with the set index and the
// way within that set.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Reset sizes the policy's metadata for a sets x ways cache and clears
	// all learned state.
	Reset(sets, ways int)
	// OnHit fires on every access that hits (including prefetch probes).
	OnHit(set, way int, ai AccessInfo)
	// OnFill fires when a line is installed into a way.
	OnFill(set, way int, ai AccessInfo)
	// OnEvict fires when a valid line is evicted by replacement (not by
	// explicit invalidation); reref reports whether the line was ever
	// referenced again after fill.
	OnEvict(set, way int, reref bool)
	// Victim picks the way to replace in set; every way is valid when it
	// is called.
	Victim(set int, ai AccessInfo) int
}

// Demoter is optionally implemented by policies that support moving a line
// to the most-replaceable position without invalidating it (the paper's
// "reducing LRU priority" variant of the invalidate instruction).
//
// The contract, locked by probetest.CheckDemoterContract for every
// catalog policy:
//
//   - Demote(set, way) fires only for resident lines: Cache.Demote
//     resolves the line first and is a no-op (never a policy callback)
//     for non-resident or just-evicted lines, so demoting such a line
//     is always harmless.
//   - After a demote, the line must be the set's next replacement victim
//     unless a later event (its own re-reference, or another line's
//     demotion) outranks it. In particular, when every other resident
//     line has been re-referenced since fill, the demoted line IS the
//     next victim.
//   - Demotion updates replacement state only. It must not invalidate
//     the line (a subsequent access still hits) and must not train any
//     reuse predictor — it is a hint about the future, not an observed
//     access.
type Demoter interface {
	Demote(set, way int)
}

// Config sizes a cache.
type Config struct {
	SizeBytes int
	Ways      int
	LineBytes int
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// Validate checks that the configuration is internally consistent and
// power-of-two indexable.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache: non-positive config %+v", c)
	}
	sets := c.Sets()
	if sets*c.Ways*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache: size %d not divisible into %d-way sets of %dB lines", c.SizeBytes, c.Ways, c.LineBytes)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	return nil
}

// invalidTag marks an empty way. Line addresses are byte addresses
// shifted right by the line size, so no real line reaches it; callers
// must not probe for it.
const invalidTag = ^uint64(0)

// Per-way state bits, kept beside the tag array.
const (
	stPrefetch uint8 = 1 << iota // filled by a prefetch and not yet demand-referenced
	stReref                      // demand-referenced at least once after fill
	stHintFree                   // way was freed by a Ripple invalidation
	stDemoted                    // line was demoted by a Ripple hint (demote variant)
)

// Stats aggregates cache events. Demand numbers exclude prefetch probes
// and fills.
type Stats struct {
	Accesses       uint64 // all probes (demand + prefetch)
	DemandAccesses uint64
	DemandMisses   uint64
	PrefetchProbes uint64
	PrefetchFills  uint64
	// PrefetchUseful counts prefetched lines that received a demand hit.
	PrefetchUseful uint64
	// PrefetchUnusedEvicted counts prefetched lines evicted (or
	// invalidated) without ever being demand-referenced: cache pollution.
	PrefetchUnusedEvicted uint64
	// Evictions counts replacement-driven evictions of valid lines.
	Evictions uint64
	// Fills counts all line installs (every demand miss and prefetch fill).
	Fills uint64
	// HintInvalidations counts Ripple `invalidate` executions that found
	// their victim resident; HintMisses counts ones that did not.
	HintInvalidations uint64
	HintMisses        uint64
	// HintFreedFills counts replacement decisions attributed to Ripple:
	// fills that landed in a way freed by an `invalidate`, plus evictions
	// of lines pushed out by a demote hint — the numerator of replacement
	// coverage.
	HintFreedFills uint64
	// ReplacementDecisions counts all decisions that displaced (or had
	// displaced) a line: policy evictions plus fills into hint-freed ways
	// — the denominator of replacement coverage.
	ReplacementDecisions uint64
	// Demotions counts executed demote hints that found their line.
	Demotions uint64
}

// Coverage returns the fraction of replacement decisions initiated by
// Ripple hints (Fig. 9 of the paper).
func (s Stats) Coverage() float64 {
	if s.ReplacementDecisions == 0 {
		return 0
	}
	return float64(s.HintFreedFills) / float64(s.ReplacementDecisions)
}

// Cache is a single level of the instruction hierarchy.
type Cache struct {
	cfg    Config
	policy Policy
	// tags and state are the tag array, row-major by set (len =
	// nsets*ways): a way is valid iff its tag is not invalidTag.
	tags    []uint64
	state   []uint8
	nsets   int
	ways    int
	setMask uint64
	Stats   Stats
}

// New builds a cache with the given geometry and replacement policy.
func New(cfg Config, p Policy) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{
		cfg:     cfg,
		policy:  p,
		nsets:   cfg.Sets(),
		ways:    cfg.Ways,
		setMask: uint64(cfg.Sets() - 1),
	}
	c.tags = make([]uint64, c.nsets*c.ways)
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	c.state = make([]uint8, c.nsets*c.ways)
	p.Reset(c.nsets, c.ways)
	return c, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Policy returns the replacement policy in use.
func (c *Cache) Policy() Policy { return c.policy }

// SetOf returns the set index for a line address.
func (c *Cache) SetOf(lineAddr uint64) int { return int(lineAddr & c.setMask) }

// row returns the tags and state bits of one set.
func (c *Cache) row(set int) ([]uint64, []uint8) {
	lo, hi := set*c.ways, (set+1)*c.ways
	return c.tags[lo:hi:hi], c.state[lo:hi:hi]
}

// find returns the way holding lineAddr in set, or -1.
func (c *Cache) find(set int, lineAddr uint64) int {
	tags, _ := c.row(set)
	for w, t := range tags {
		if t == lineAddr {
			return w
		}
	}
	return -1
}

// AccessResult describes the outcome of one probe.
type AccessResult struct {
	Hit bool
	// Set and Way locate the line after the access.
	Set, Way int
	// Evicted holds the replaced line address when a valid line was
	// evicted to make room; EvictedValid marks it meaningful.
	Evicted      uint64
	EvictedValid bool
	// HintFreed reports that a miss filled into a way freed by a Ripple
	// invalidation (a Ripple-initiated replacement decision).
	HintFreed bool
	// PrefetchHit reports that a demand access hit a line that was
	// prefetched and not yet demand-referenced (the prefetch was useful).
	PrefetchHit bool
}

// Access probes for a line and fills it on a miss. Prefetch probes that
// miss install the line marked as a prefetch; prefetch probes that hit are
// counted but do not change prefetch bits.
func (c *Cache) Access(ai AccessInfo) AccessResult {
	c.Stats.Accesses++
	if ai.Prefetch {
		c.Stats.PrefetchProbes++
	} else {
		c.Stats.DemandAccesses++
	}
	set := c.SetOf(ai.Line)
	res := AccessResult{Set: set}

	if w := c.find(set, ai.Line); w >= 0 {
		res.Hit = true
		res.Way = w
		if !ai.Prefetch {
			st := &c.state[set*c.ways+w]
			if *st&stPrefetch != 0 {
				res.PrefetchHit = true
				c.Stats.PrefetchUseful++
			}
			// A demand re-use also cancels an earlier demote hint's
			// claim on this line.
			*st = *st&^(stPrefetch|stDemoted) | stReref
		}
		c.policy.OnHit(set, w, ai)
		return res
	}

	// Miss.
	if !ai.Prefetch {
		c.Stats.DemandMisses++
	}
	way := c.pickWay(set, ai, &res)
	i := set*c.ways + way
	c.tags[i] = ai.Line
	c.state[i] = 0
	c.Stats.Fills++
	if ai.Prefetch {
		c.state[i] = stPrefetch
		c.Stats.PrefetchFills++
	}
	res.Way = way
	c.policy.OnFill(set, way, ai)
	return res
}

// pickWay selects the fill target: an invalid way if one exists (hint-freed
// ways are preferred so coverage attribution is exact), otherwise the
// policy's victim.
func (c *Cache) pickWay(set int, ai AccessInfo, res *AccessResult) int {
	tags, state := c.row(set)
	invalid := -1
	for w, t := range tags {
		if t == invalidTag {
			if state[w]&stHintFree != 0 {
				c.Stats.HintFreedFills++
				c.Stats.ReplacementDecisions++
				res.HintFreed = true
				state[w] = 0
				return w
			}
			if invalid < 0 {
				invalid = w
			}
		}
	}
	if invalid >= 0 {
		return invalid
	}
	w := c.policy.Victim(set, ai)
	if w < 0 || w >= c.ways {
		panic(fmt.Sprintf("cache: policy %s returned invalid victim way %d", c.policy.Name(), w))
	}
	res.Evicted = tags[w]
	res.EvictedValid = true
	c.Stats.Evictions++
	c.Stats.ReplacementDecisions++
	if state[w]&stPrefetch != 0 {
		c.Stats.PrefetchUnusedEvicted++
	}
	if state[w]&stDemoted != 0 {
		// The victim was pushed to the replaceable position by a Ripple
		// demote hint: this replacement decision belongs to Ripple.
		c.Stats.HintFreedFills++
		res.HintFreed = true
	}
	c.policy.OnEvict(set, w, state[w]&stReref != 0)
	return w
}

// Invalidate executes a Ripple `invalidate` hint: if the line is resident
// it is dropped and its way is marked hint-freed so the next fill in this
// set is attributed to Ripple. It reports whether the line was resident.
func (c *Cache) Invalidate(lineAddr uint64) bool {
	set := c.SetOf(lineAddr)
	w := c.find(set, lineAddr)
	if w < 0 {
		c.Stats.HintMisses++
		return false
	}
	i := set*c.ways + w
	if c.state[i]&stPrefetch != 0 {
		c.Stats.PrefetchUnusedEvicted++
	}
	c.tags[i] = invalidTag
	c.state[i] = stHintFree
	c.Stats.HintInvalidations++
	return true
}

// Demote executes the LRU-priority-lowering variant of the hint: the line
// stays resident but becomes the set's preferred victim. It reports whether
// the line was resident and the policy supports demotion.
func (c *Cache) Demote(lineAddr uint64) bool {
	d, ok := c.policy.(Demoter)
	if !ok {
		return false
	}
	set := c.SetOf(lineAddr)
	if w := c.find(set, lineAddr); w >= 0 {
		d.Demote(set, w)
		// A subsequent eviction of this way counts as Ripple-initiated.
		c.state[set*c.ways+w] |= stDemoted
		c.Stats.Demotions++
		return true
	}
	c.Stats.HintMisses++
	return false
}

// Contains reports whether the line is resident.
func (c *Cache) Contains(lineAddr uint64) bool {
	return c.find(c.SetOf(lineAddr), lineAddr) >= 0
}

// LinesInSet appends the valid resident line addresses of the set holding
// lineAddr to dst — used by the replacement-accuracy oracle, which needs to
// compare a victim against its set peers.
func (c *Cache) LinesInSet(lineAddr uint64, dst []uint64) []uint64 {
	tags, _ := c.row(c.SetOf(lineAddr))
	for _, t := range tags {
		if t != invalidTag {
			dst = append(dst, t)
		}
	}
	return dst
}

// MPKI returns demand misses per kilo-instruction given an instruction
// count.
func (s Stats) MPKI(instrs uint64) float64 {
	if instrs == 0 {
		return 0
	}
	return float64(s.DemandMisses) / float64(instrs) * 1000
}

// Sub returns the element-wise difference a-b of two stats snapshots; the
// frontend uses it to report steady-state (post-warmup) numbers.
func Sub(a, b Stats) Stats {
	return Stats{
		Accesses:              a.Accesses - b.Accesses,
		DemandAccesses:        a.DemandAccesses - b.DemandAccesses,
		DemandMisses:          a.DemandMisses - b.DemandMisses,
		PrefetchProbes:        a.PrefetchProbes - b.PrefetchProbes,
		PrefetchFills:         a.PrefetchFills - b.PrefetchFills,
		PrefetchUseful:        a.PrefetchUseful - b.PrefetchUseful,
		PrefetchUnusedEvicted: a.PrefetchUnusedEvicted - b.PrefetchUnusedEvicted,
		Evictions:             a.Evictions - b.Evictions,
		Fills:                 a.Fills - b.Fills,
		HintInvalidations:     a.HintInvalidations - b.HintInvalidations,
		HintMisses:            a.HintMisses - b.HintMisses,
		HintFreedFills:        a.HintFreedFills - b.HintFreedFills,
		ReplacementDecisions:  a.ReplacementDecisions - b.ReplacementDecisions,
		Demotions:             a.Demotions - b.Demotions,
	}
}
