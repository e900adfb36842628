package frontend

import (
	"fmt"
	"slices"

	"ripple/internal/blockseq"
	"ripple/internal/cache"
	"ripple/internal/opt"
	"ripple/internal/prefetch"
	"ripple/internal/program"
	"ripple/internal/replacement"
)

// HintMode selects how injected Ripple hints are executed.
type HintMode int

const (
	// HintInvalidate drops the victim line from the L1I (the proposed
	// `invalidate` instruction, cldemote-like).
	HintInvalidate HintMode = iota
	// HintDemote moves the victim to the most-replaceable position
	// instead (Sec. IV, "invalidation vs. reducing LRU priority").
	HintDemote
)

// Options configures one simulation run.
type Options struct {
	// Policy is the L1I replacement policy instance (fresh per run).
	Policy cache.Policy
	// Prefetcher drives instruction prefetching (fresh per run).
	Prefetcher prefetch.Prefetcher
	// Hints selects invalidate vs. demote execution of injected hints.
	Hints HintMode
	// MeasureAccuracy scores every replacement decision against the
	// Belady next-use oracle (costs one pass over the trace up front).
	MeasureAccuracy bool
	// WarmupBlocks executes the first N trace blocks to warm the caches
	// and predictors but excludes them from every reported statistic —
	// the steady-state methodology of the paper's trace collection. A
	// warmup at least as long as the trace is ignored (full-trace stats).
	WarmupBlocks int
	// ColdHierarchy starts the L2/L3 empty. By default the program text is
	// pre-installed in the outer levels (10 MiB of L3 holds any of these
	// binaries), modeling the steady-state server the paper traces: after
	// hours of uptime every text line has long been resident beyond L1,
	// and charging one-time 260-cycle compulsory fills against a short
	// simulation window would distort every comparison.
	ColdHierarchy bool
	// Injections, when non-nil, runs a padding-placed injection plan as
	// an overlay on the simulated program, exactly as if the program had
	// been rewritten by WithInjectionsPreservingLayout(Injections): a
	// planned block that program.Injectable accepts executes the plan's
	// victims instead of its own Invalidations, and every other block
	// executes its own. The overlay never changes a block's extent, so
	// it is exact only when the rewrite would move no code
	// (!prog.PlanMovesCode(Injections)); callers with a plan that does
	// must rewrite the program instead. Block IDs outside the program
	// are an error. The map and its victim slices are read, never
	// written, and must not change during the run.
	Injections map[program.BlockID][]uint64
	// Image, when non-nil, is the program this configuration executes
	// in place of the one passed to Run or RunMany: a rewritten image of
	// it with the same block IDs, such as a shift-placed or code-moving
	// injection plan. The trace is decoded by block ID only, so one
	// decode serves every image.
	Image *program.Program

	// onEvent, when set, observes every demand/prefetch event as it is
	// issued (warmup included; AccessEvents resolves the boundary via
	// onWarmupEnd). Unexported: only AccessEvents wires these hooks.
	onEvent func(opt.Event)
	// onWarmupEnd fires once when the warmup boundary is crossed.
	onWarmupEnd func()
}

// Result is everything one run measures.
type Result struct {
	Program    string
	Policy     string
	Prefetcher string

	Blocks      uint64 // committed basic blocks
	Instrs      uint64 // dynamic instructions, including injected hints
	HintInstrs  uint64 // dynamic injected hint instructions
	Cycles      uint64
	StallCycles uint64
	// LateMisses counts demand accesses that found their line still in
	// flight from a prefetch: the data had not arrived, so they stall for
	// the remaining latency and count as misses (MSHR hits in hardware).
	LateMisses uint64

	L1I cache.Stats
	// Compulsory counts first-touch demand misses (cold lines).
	Compulsory uint64
	// L2Hits/L3Hits/MemFills break down where demand L1I misses were
	// served.
	L2Hits, L3Hits, MemFills uint64

	// Accuracy accounting (MeasureAccuracy only): policy-made eviction
	// decisions and Ripple hint decisions scored against Belady.
	PolicyEvictions uint64
	PolicyOptimal   uint64
	HintEvictions   uint64
	HintOptimal     uint64

	// Stream is always nil. The field keeps Result's JSON encoding, which
	// the benchmark's recorded output digests hash, byte-identical to
	// when a run could materialize its access stream here; replay a run
	// through AccessEvents for that stream.
	Stream *struct{}

	// BranchMPKI is control-flow mispredictions per kilo-instruction
	// (FDIP runs only; 0 otherwise).
	BranchMPKI float64
}

// IPC returns retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instrs) / float64(r.Cycles)
}

// MPKI returns L1I demand misses per kilo-instruction. Late prefetches
// (line still in flight when demanded) count as misses, as in hardware.
func (r Result) MPKI() float64 {
	if r.Instrs == 0 {
		return 0
	}
	return float64(r.L1I.DemandMisses+r.LateMisses) / float64(r.Instrs) * 1000
}

// Coverage returns the fraction of replacement decisions initiated by
// Ripple hints.
func (r Result) Coverage() float64 { return r.L1I.Coverage() }

// HintAccuracy returns the fraction of effective Ripple hints whose victim
// was a Belady-consistent choice (Fig. 10).
func (r Result) HintAccuracy() float64 {
	if r.HintEvictions == 0 {
		return 0
	}
	return float64(r.HintOptimal) / float64(r.HintEvictions)
}

// PolicyAccuracy returns the Belady-consistency of the underlying
// policy's own victim choices (the paper reports 77.8% for LRU).
func (r Result) PolicyAccuracy() float64 {
	if r.PolicyEvictions == 0 {
		return 0
	}
	return float64(r.PolicyOptimal) / float64(r.PolicyEvictions)
}

// CombinedAccuracy returns the accuracy over all replacement decisions
// (Ripple hints + policy evictions), the paper's "overall" number.
func (r Result) CombinedAccuracy() float64 {
	tot := r.HintEvictions + r.PolicyEvictions
	if tot == 0 {
		return 0
	}
	return float64(r.HintOptimal+r.PolicyOptimal) / float64(tot)
}

// IdealCycles returns the cycle count of the same run with a perfect
// I-cache (no instruction-miss stalls) — the Fig. 1 limit.
func IdealCycles(p Params, instrs uint64) uint64 {
	return uint64(float64(instrs) * p.BaseCPI)
}

// Speedup returns the percentage speedup of r over a baseline run.
func Speedup(baseline, r Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return (float64(baseline.Cycles)/float64(r.Cycles) - 1) * 100
}

// sim bundles one configuration's mutable state. A run drives one sim
// per configuration off a single decode of the trace (RunMany).
type sim struct {
	p      Params
	prog   *program.Program // the image this configuration executes
	opts   Options
	l1i    *cache.Cache
	outer  hierarchy
	res    Result
	oracle *opt.Oracle
	pos    int32 // current demand-stream position (oracle time)

	// cycleF is the running cycle clock; prefetch timeliness is judged
	// against it.
	cycleF float64
	// pending holds, per L1I way (set*ways + way), the cycle the data of
	// the line the way holds arrives, or 0 when it has arrived. A demand
	// access before that cycle is a late prefetch: it stalls for the
	// remainder and counts as a miss. Every fill writes its way's slot
	// and only a hit reads it, so eviction and invalidation need not
	// clear it (docs/MODEL.md "Tuning epoch cost").
	pending []float64
	ways    int
	// planned marks, one bit per block ID, the blocks whose hints come
	// from opts.Injections rather than from the program.
	planned []uint64
	// lastLine is the last demand line fetched: a block's first line
	// that repeats it is a within-line continuation and is not fetched
	// again (matching DemandLines).
	lastLine uint64
	// shared, when non-nil, is the prefetcher walk this configuration
	// replays instead of driving its own prefetcher.
	shared *prefetchWalk
	// walker is the prefetcher instance actually driven for this
	// configuration: its own, or the shared walk's.
	walker prefetch.Prefetcher
	issue  prefetch.IssueFunc
	// missObs is the prefetcher's miss-feedback hook, if it has one
	// (temporal record/replay designs train on the miss stream).
	missObs prefetch.MissObserver
	// warmSnap holds the counter snapshot taken at the end of warmup,
	// and warmMispredicts the branch predictor's count at that point.
	warmSnap        *Result
	warmMispredicts uint64
}

// prefetchWalk is one prefetcher driven on behalf of several
// configurations: it retires each chunk of the trace once, recording the
// lines it issues per block, and every configuration replays them into
// its own L1I. This is exact because such a prefetcher reads only the
// program and the trace, never the cache (prefetch.SameWalk).
type prefetchWalk struct {
	pf    prefetch.Prefetcher
	issue prefetch.IssueFunc
	// lines holds what the current chunk's blocks issued: block k's
	// lines are lines[ends[k]:ends[k+1]].
	lines []uint64
	ends  []int
	// misBefore[k] is the FDIP predictor's misprediction count before
	// chunk block k retired: the warmup snapshot of a configuration
	// whose warmup ends there.
	misBefore []uint64
}

// walk drives the shared prefetcher over the retirement of chunk blocks
// buf[:n]; block k retires only when buf holds its successor.
func (w *prefetchWalk) walk(buf []program.BlockID, n int) {
	f, _ := w.pf.(*prefetch.FDIP)
	w.lines, w.ends, w.misBefore = w.lines[:0], append(w.ends[:0], 0), w.misBefore[:0]
	for k := 0; k < n; k++ {
		if f != nil {
			w.misBefore = append(w.misBefore, f.Predictor().Mispredicts())
		}
		if k+1 < len(buf) {
			w.pf.OnBlockRetire(buf[k], buf[k+1], w.issue)
		}
		w.ends = append(w.ends, len(w.lines))
	}
}

func (w *prefetchWalk) record(l uint64) { w.lines = append(w.lines, l) }

// Run simulates the block stream through the configured frontend and
// returns the measurements. The source may be replayed with a rewritten
// (injected) program: block IDs are stable across injection. Run holds
// O(1) state beyond the caches: a streaming source (workload walker, PT
// decoder) is consumed without ever materializing the trace.
// MeasureAccuracy re-opens the source for the oracle pre-pass, relying on
// the Source replayability contract. Runs over the same text share one
// prewarmed L2/L3 snapshot and copy only the sets they touch (outer.go).
//
// Run is RunMany with one configuration.
func Run(p Params, prog *program.Program, src blockseq.Source, opts Options) (Result, error) {
	sims, err := runMany(p, prog, src, []Options{opts}, nil)
	if err != nil {
		return Result{}, err
	}
	return sims[0].res, nil
}

// RunMany simulates several configurations in lockstep over one pass of
// the source and returns their results in order; each equals what Run
// returns for that configuration alone. The work that does not depend
// on cache state is done once and fanned out to every configuration:
//
//   - the source is decoded once;
//   - each distinct program image (prog, or a configuration's Image) has
//     one oracle pre-pass when any of its configurations sets
//     MeasureAccuracy;
//   - configurations whose prefetchers walk identically
//     (prefetch.SameWalk: same kind, parameters and program, and no miss
//     feedback) share one prefetcher, driven through the first such
//     configuration's instance; the others' instances stay untouched.
//
// Each configuration keeps its own L1I and policy, outer hierarchy,
// cycle clock, hint overlay, in-flight prefetch slots and Result.
// Configurations must use distinct Policy instances, and distinct
// Prefetcher instances unless prefetch.SameWalk holds between them.
func RunMany(p Params, prog *program.Program, src blockseq.Source, opts []Options) ([]Result, error) {
	sims, err := runMany(p, prog, src, opts, nil)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(sims))
	for i := range sims {
		out[i] = sims[i].res
	}
	return out, nil
}

// runWith is Run over a given outer hierarchy.
func runWith(p Params, prog *program.Program, src blockseq.Source, opts Options, h hierarchy) (Result, error) {
	sims, err := runMany(p, prog, src, []Options{opts}, []hierarchy{h})
	if err != nil {
		return Result{}, err
	}
	return sims[0].res, nil
}

// runMany builds one sim per configuration, wires the shared oracles and
// prefetcher walks, and runs them over one pass of src. hs, when non-nil,
// supplies each configuration's outer hierarchy; otherwise each gets the
// production overlay over its image's prewarmed (or cold) snapshot.
func runMany(p Params, prog *program.Program, src blockseq.Source, opts []Options, hs []hierarchy) ([]sim, error) {
	if len(opts) == 0 {
		return nil, nil
	}
	sims := make([]sim, len(opts))
	for i := range sims {
		s := &sims[i]
		o := opts[i]
		if o.Policy == nil {
			o.Policy = replacement.NewLRU()
		}
		if o.Prefetcher == nil {
			o.Prefetcher = prefetch.None{}
		}
		img := prog
		if o.Image != nil {
			if o.Image.NumBlocks() != prog.NumBlocks() {
				return nil, fmt.Errorf("frontend: image %s has %d blocks; %s has %d",
					o.Image.Name, o.Image.NumBlocks(), prog.Name, prog.NumBlocks())
			}
			img = o.Image
		}
		l1i, err := cache.New(p.L1I, o.Policy)
		if err != nil {
			return nil, fmt.Errorf("frontend: L1I: %w", err)
		}
		var h hierarchy
		if hs != nil {
			h = hs[i]
		} else if h, err = newOuter(p, img, o.ColdHierarchy); err != nil {
			return nil, err
		}
		*s = sim{
			p: p, prog: img, opts: o,
			l1i: l1i, outer: h,
			res: Result{
				Program:    img.Name,
				Policy:     o.Policy.Name(),
				Prefetcher: o.Prefetcher.Name(),
			},
			pending:  make([]float64, p.L1I.Sets()*p.L1I.Ways),
			ways:     p.L1I.Ways,
			lastLine: ^uint64(0),
			walker:   o.Prefetcher,
		}
		if s.planned, err = plannedBlocks(img, o.Injections); err != nil {
			return nil, err
		}
		if mo, ok := o.Prefetcher.(prefetch.MissObserver); ok {
			s.missObs = mo
		}
		s.issue = s.issuePrefetch
		if o.MeasureAccuracy {
			// One oracle pre-pass per image: it depends only on the
			// image's demand lines.
			for k := range sims[:i] {
				if sims[k].prog == img && sims[k].oracle != nil {
					s.oracle = sims[k].oracle
					break
				}
			}
			if s.oracle == nil {
				if s.oracle, err = opt.BuildOracleSource(DemandEvents(img, src), p.L1I); err != nil {
					return nil, fmt.Errorf("frontend: oracle pre-pass: %w", err)
				}
			}
		}
	}
	// Group configurations whose prefetchers walk identically; a group
	// of one keeps driving its own prefetcher directly.
	for i := range sims {
		if sims[i].shared != nil {
			continue
		}
		var w *prefetchWalk
		for k := i + 1; k < len(sims); k++ {
			if sims[k].shared != nil || !prefetch.SameWalk(sims[i].walker, sims[k].walker) {
				continue
			}
			if w == nil {
				w = &prefetchWalk{
					pf:        sims[i].walker,
					lines:     make([]uint64, 0, 4*chunkBlocks),
					ends:      make([]int, 0, chunkBlocks+1),
					misBefore: make([]uint64, 0, chunkBlocks),
				}
				w.issue = w.record
				sims[i].shared = w
			}
			sims[k].shared, sims[k].walker = w, w.pf
		}
	}

	if err := simulate(src, sims); err != nil {
		return nil, fmt.Errorf("frontend: %w", err)
	}
	for i := range sims {
		s := &sims[i]
		s.res.Cycles = uint64(s.cycleF)
		s.res.L1I = s.l1i.Stats
		s.res.subtract(s.warmSnap)
		if f, ok := s.walker.(*prefetch.FDIP); ok && s.res.Instrs > 0 {
			mis := f.Predictor().Mispredicts() - s.warmMispredicts
			s.res.BranchMPKI = float64(mis) / float64(s.res.Instrs) * 1000
		}
	}
	return sims, nil
}

// plannedBlocks builds the overlay's bitset over block IDs: bit id is set
// when the plan rewrites block id. It is nil for an empty plan.
func plannedBlocks(prog *program.Program, plan map[program.BlockID][]uint64) ([]uint64, error) {
	if len(plan) == 0 {
		return nil, nil
	}
	n := prog.NumBlocks()
	bits := make([]uint64, (n+63)/64)
	for bid, victims := range plan {
		if bid < 0 || int(bid) >= n {
			return nil, fmt.Errorf("frontend: injection plan names block %d; %s has %d", bid, prog.Name, n)
		}
		if program.Injectable(prog.Block(bid), victims) {
			bits[bid>>6] |= 1 << (bid & 63)
		}
	}
	return bits, nil
}

// hints returns the hint victims block bid executes.
func (s *sim) hints(bid program.BlockID, b *program.Block) []uint64 {
	if s.planned != nil && s.planned[bid>>6]&(1<<(bid&63)) != 0 {
		return s.opts.Injections[bid]
	}
	return b.Invalidations
}

// chunkBlocks is how many blocks one configuration executes before the
// next takes its turn. Interleaving configurations block by block keeps
// every configuration's L1I, policy and overlay state live at once, and
// on a ten-policy sweep that thrashed the host's caches badly enough to
// run slower than ten separate passes; a chunk keeps one configuration's
// state hot while its lookahead buffer stays small. It is a variable
// only so tests can show the chunking is invisible in results.
var chunkBlocks = 2048

// simulate runs every configuration over one pass of src, chunk by
// chunk: the source fills a buffer of block IDs, each shared prefetcher
// walks it once, then each configuration executes it in turn. Every
// configuration sees exactly the blocks, successors and prefetch issues
// of a pass of its own, so the interleaving is invisible in its result.
func simulate(src blockseq.Source, sims []sim) error {
	var walks []*prefetchWalk
	for i := range sims {
		if w := sims[i].shared; w != nil && !slices.Contains(walks, w) {
			walks = append(walks, w)
		}
	}
	// The buffer holds a chunk plus one block of lookahead: the
	// prefetcher's retire hook needs each block's successor. The
	// lookahead block opens the next chunk.
	seq := src.Open()
	buf := make([]program.BlockID, 0, chunkBlocks+1)
	if bid, ok := seq.Next(); ok {
		buf = append(buf, bid)
	}
	for ti := 0; len(buf) > 0; {
		for len(buf) <= chunkBlocks {
			bid, ok := seq.Next()
			if !ok {
				break
			}
			buf = append(buf, bid)
		}
		n := min(len(buf), chunkBlocks)
		for _, w := range walks {
			w.walk(buf, n)
		}
		for i := range sims {
			sims[i].execute(buf, n, ti)
		}
		ti += n
		buf = append(buf[:0], buf[n:]...)
	}
	return seq.Err()
}

// execute runs chunk blocks buf[:n], the first of which is trace block
// ti0: each block's demand fetches, its hints, the prefetches its
// retirement issues, and its base execution time. Block k retires into
// the prefetcher only when buf holds its successor.
func (s *sim) execute(buf []program.BlockID, n, ti0 int) {
	w := s.shared
	for k, bid := range buf[:n] {
		if ti0+k == s.opts.WarmupBlocks {
			s.snapshotWarm(k)
		}
		b := s.prog.Block(bid)
		hints := s.hints(bid, b)
		nh := len(hints)
		s.res.Blocks++
		s.res.Instrs += uint64(b.Instrs) + uint64(nh)

		// Consecutive lines of a block are distinct, so only its first
		// can continue the previous block's last.
		first, nl := s.prog.BlockLines(bid)
		if nl > 0 {
			l, end := first, first+uint64(nl)
			if l == s.lastLine {
				l++
			}
			s.lastLine = end - 1
			for ; l < end; l++ {
				s.demandAccess(l)
				s.pos++
			}
		}

		// Injected hints retire within the block.
		if nh > 0 {
			s.res.HintInstrs += uint64(nh)
			for _, victim := range hints {
				s.executeHint(victim)
			}
		}

		// The prefetcher observes retirement and runs ahead.
		if w != nil {
			for _, l := range w.lines[w.ends[k]:w.ends[k+1]] {
				s.issuePrefetch(l)
			}
		} else if k+1 < len(buf) {
			s.walker.OnBlockRetire(bid, buf[k+1], s.issue)
		}

		// Injected hints are near-free µops charged at HintCPI.
		s.cycleF += float64(b.Instrs)*s.p.BaseCPI + float64(nh)*s.p.HintCPI
	}
}

// snapshotWarm records every counter at the end of warmup, before chunk
// block k executes, so the final result reports steady-state deltas
// only.
func (s *sim) snapshotWarm(k int) {
	snap := s.res
	snap.Cycles = uint64(s.cycleF)
	snap.L1I = s.l1i.Stats
	s.warmSnap = &snap
	if w := s.shared; w != nil {
		// The shared walk has already retired the whole chunk.
		if k < len(w.misBefore) {
			s.warmMispredicts = w.misBefore[k]
		}
	} else if f, ok := s.walker.(*prefetch.FDIP); ok {
		s.warmMispredicts = f.Predictor().Mispredicts()
	}
	if s.opts.onWarmupEnd != nil {
		s.opts.onWarmupEnd()
	}
}

// subtract removes the warmup-era counts from the result.
func (r *Result) subtract(w *Result) {
	if w == nil {
		return
	}
	r.Blocks -= w.Blocks
	r.Instrs -= w.Instrs
	r.HintInstrs -= w.HintInstrs
	r.Cycles -= w.Cycles
	r.StallCycles -= w.StallCycles
	r.LateMisses -= w.LateMisses
	r.Compulsory -= w.Compulsory
	r.L2Hits -= w.L2Hits
	r.L3Hits -= w.L3Hits
	r.MemFills -= w.MemFills
	r.PolicyEvictions -= w.PolicyEvictions
	r.PolicyOptimal -= w.PolicyOptimal
	r.HintEvictions -= w.HintEvictions
	r.HintOptimal -= w.HintOptimal
	r.L1I = cache.Sub(r.L1I, w.L1I)
}

// stall charges exposed miss latency: the clock advances and the stall is
// accounted.
func (s *sim) stall(cycles float64) {
	s.cycleF += cycles
	s.res.StallCycles += uint64(cycles)
}

// demandAccess performs one demand instruction-line access, charging the
// exposed miss latency.
func (s *sim) demandAccess(l uint64) {
	if s.opts.onEvent != nil {
		s.opts.onEvent(opt.Event{Line: l})
	}
	ai := cache.AccessInfo{Line: l, Sig: l}
	r := s.l1i.Access(ai)
	if r.EvictedValid && s.oracle != nil {
		s.scoreEviction(r, l, s.pos)
	}
	// A hit consumes the way's pending prefetch; a miss refilled the way
	// with a demand line, which has none.
	pend := &s.pending[r.Set*s.ways+r.Way]
	ready := *pend
	*pend = 0
	if r.Hit {
		if ready > s.cycleF {
			// Late prefetch: the line is allocated but its data is
			// still in flight.
			s.res.LateMisses++
			s.stall(ready - s.cycleF)
		}
		return
	}
	if s.outer.firstMiss(l) {
		s.res.Compulsory++
	}
	// Serve the miss from the hierarchy, fully exposed.
	switch s.outer.fill(l, false) {
	case servedL2:
		s.res.L2Hits++
		s.stall(float64(s.p.L2Lat))
	case servedL3:
		s.res.L3Hits++
		s.stall(float64(s.p.L3Lat))
	default:
		s.res.MemFills++
		s.stall(float64(s.p.MemLat))
	}
	if s.missObs != nil {
		s.missObs.OnDemandMiss(l, s.issue)
	}
}

// issuePrefetch installs a prefetched line into the L1I (via the
// hierarchy) off the critical path.
func (s *sim) issuePrefetch(l uint64) {
	ai := cache.AccessInfo{Line: l, Sig: l, Prefetch: true}
	r := s.l1i.Access(ai)
	if r.EvictedValid && s.oracle != nil {
		s.scoreEviction(r, l, s.pos-1)
	}
	if s.opts.onEvent != nil {
		s.opts.onEvent(opt.Event{Line: l, Prefetch: true})
	}
	if !r.Hit {
		// Pull the line through L2/L3 off the critical path; the data
		// arrives after the level's latency, and a demand access before
		// then is a late prefetch.
		lat := float64(s.p.L2Lat)
		switch s.outer.fill(l, true) {
		case servedL3:
			lat = float64(s.p.L3Lat)
		case servedMem:
			lat = float64(s.p.MemLat)
		}
		// The fill replaced whatever the way held, pending or not.
		s.pending[r.Set*s.ways+r.Way] = s.cycleF + lat
	}
}

// executeHint runs one injected invalidate/demote for a victim line.
func (s *sim) executeHint(victim uint64) {
	var acted bool
	if s.opts.Hints == HintDemote {
		acted = s.l1i.Demote(victim)
	} else {
		acted = s.l1i.Invalidate(victim)
	}
	if acted && s.oracle != nil {
		s.res.HintEvictions++
		if s.oracle.IsAccurateEviction(victim, s.pos-1) {
			s.res.HintOptimal++
		}
	}
}

// scoreEviction scores an eviction decision with the paper's accuracy
// metric: did it introduce a miss the ideal policy would have avoided?
// Demote-path evictions (HintFreed) are attributed to Ripple; the rest to
// the policy.
func (s *sim) scoreEviction(r cache.AccessResult, filled uint64, pos int32) {
	_ = filled
	accurate := s.oracle.IsAccurateEviction(r.Evicted, pos)
	if r.HintFreed {
		s.res.HintEvictions++
		if accurate {
			s.res.HintOptimal++
		}
		return
	}
	s.res.PolicyEvictions++
	if accurate {
		s.res.PolicyOptimal++
	}
}
