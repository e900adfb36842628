package frontend

import (
	"fmt"

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
	// RecordStream materializes the full demand+prefetch line-event
	// stream on Result.Stream — 16 bytes per post-warmup access, i.e.
	// O(trace) memory. It is a legacy opt-in for callers that genuinely
	// need the slice; every oracle consumer should instead replay the
	// run through AccessEvents, which streams the identical events
	// without materializing them.
	RecordStream bool
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

	// Stream is the recorded access stream (RecordStream only).
	Stream []opt.Event

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

// sim bundles one run's mutable state.
type sim struct {
	p      Params
	prog   *program.Program
	opts   Options
	l1i    *cache.Cache
	outer  hierarchy
	res    *Result
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
	// missObs is the prefetcher's miss-feedback hook, if it has one
	// (temporal record/replay designs train on the miss stream).
	missObs prefetch.MissObserver
	// warmSnap holds the counter snapshot taken at the end of warmup.
	warmSnap *Result
}

// Run simulates the block stream through the configured frontend and
// returns the measurements. The source may be replayed with a rewritten
// (injected) program: block IDs are stable across injection. Run holds
// O(1) state beyond the caches: a streaming source (workload walker, PT
// decoder) is consumed without ever materializing the trace.
// MeasureAccuracy re-opens the source for the oracle pre-pass, relying on
// the Source replayability contract. Runs over the same text share one
// prewarmed L2/L3 snapshot and copy only the sets they touch (outer.go).
func Run(p Params, prog *program.Program, src blockseq.Source, opts Options) (Result, error) {
	if opts.Policy == nil {
		opts.Policy = replacement.NewLRU()
	}
	if opts.Prefetcher == nil {
		opts.Prefetcher = prefetch.None{}
	}
	h, err := newOuter(p, prog, opts.ColdHierarchy)
	if err != nil {
		return Result{}, err
	}
	return runWith(p, prog, src, opts, h)
}

// runWith is Run over a given outer hierarchy.
func runWith(p Params, prog *program.Program, src blockseq.Source, opts Options, h hierarchy) (Result, error) {
	l1i, err := cache.New(p.L1I, opts.Policy)
	if err != nil {
		return Result{}, fmt.Errorf("frontend: L1I: %w", err)
	}
	res := Result{
		Program:    prog.Name,
		Policy:     opts.Policy.Name(),
		Prefetcher: opts.Prefetcher.Name(),
	}
	s := &sim{
		p: p, prog: prog, opts: opts,
		l1i: l1i, outer: h,
		res:     &res,
		pending: make([]float64, p.L1I.Sets()*p.L1I.Ways),
		ways:    p.L1I.Ways,
	}
	if s.planned, err = plannedBlocks(prog, opts.Injections); err != nil {
		return Result{}, err
	}
	if mo, ok := opts.Prefetcher.(prefetch.MissObserver); ok {
		s.missObs = mo
	}
	if opts.MeasureAccuracy {
		o, err := opt.BuildOracleSource(DemandEvents(prog, src), p.L1I)
		if err != nil {
			return Result{}, fmt.Errorf("frontend: oracle pre-pass: %w", err)
		}
		s.oracle = o
	}
	if opts.RecordStream {
		res.Stream = make([]opt.Event, 0, blockseq.CapHint(src, 512)*2)
	}

	if err := s.run(src); err != nil {
		return Result{}, fmt.Errorf("frontend: %w", err)
	}

	res.Cycles = uint64(s.cycleF)
	res.L1I = s.l1i.Stats
	res.subtract(s.warmSnap)
	if f, ok := opts.Prefetcher.(*prefetch.FDIP); ok && res.Instrs > 0 {
		pr := f.Predictor()
		mis := pr.CondMispredicts + pr.IndMispredicts + pr.RetMispredicts
		res.BranchMPKI = float64(mis) / float64(res.Instrs) * 1000
	}
	return res, nil
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

func (s *sim) run(src blockseq.Source) error {
	lastLine := ^uint64(0)
	issue := s.issuePrefetch

	// One-block lookahead: the prefetcher's retire hook needs the next
	// block, so the loop always holds the current block plus the peeked
	// successor — the only trace state the simulator keeps.
	seq := src.Open()
	bid, ok := seq.Next()
	for ti := 0; ok; ti++ {
		next, haveNext := seq.Next()
		if ti == s.opts.WarmupBlocks {
			s.snapshotWarm()
		}
		b := s.prog.Block(bid)
		hints := s.hints(bid, b)
		nh := len(hints)
		s.res.Blocks++
		s.res.Instrs += uint64(b.Instrs) + uint64(nh)

		// Fetch the block's lines (coalescing within-line continuation,
		// matching DemandLines).
		first, n := s.prog.BlockLines(bid)
		for l := first; l < first+uint64(n); l++ {
			if l == lastLine {
				continue
			}
			lastLine = l
			s.demandAccess(l)
			s.pos++
		}

		// Execute injected hints (they retire within the block).
		if nh > 0 {
			s.res.HintInstrs += uint64(nh)
			for _, victim := range hints {
				s.executeHint(victim)
			}
		}

		// Let the prefetcher observe retirement and run ahead.
		if haveNext {
			s.opts.Prefetcher.OnBlockRetire(bid, next, issue)
		}

		// Advance the pipeline clock by the block's base execution time;
		// injected hints are near-free µops charged at HintCPI.
		s.cycleF += float64(b.Instrs)*s.p.BaseCPI + float64(nh)*s.p.HintCPI

		bid, ok = next, haveNext
	}
	return seq.Err()
}

// snapshotWarm records every counter at the end of warmup so the final
// result reports steady-state deltas only.
func (s *sim) snapshotWarm() {
	snap := *s.res
	snap.Cycles = uint64(s.cycleF)
	snap.L1I = s.l1i.Stats
	snap.Stream = nil
	s.warmSnap = &snap
	if s.opts.RecordStream {
		// The oracle replays only the measured region.
		s.res.Stream = s.res.Stream[:0]
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
	if s.opts.RecordStream {
		s.res.Stream = append(s.res.Stream, opt.Event{Line: l})
	}
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
		s.missObs.OnDemandMiss(l, s.issuePrefetch)
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
	if s.opts.RecordStream {
		s.res.Stream = append(s.res.Stream, opt.Event{Line: l, Prefetch: true})
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
