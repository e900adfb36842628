// Package core implements Ripple, the paper's primary contribution: a
// profile-guided software technique that (1) replays an ideal replacement
// policy over a profiled basic-block trace, (2) finds, for every eviction
// the ideal policy would perform, the *cue block* whose execution predicts
// that eviction with the highest conditional probability, and (3) injects
// an `invalidate` (or LRU-demote) instruction for the victim line into
// every cue block that clears the invalidation threshold, at link time.
//
// The resulting rewritten binary steers any underlying hardware
// replacement policy — LRU, Random, anything — toward near-ideal eviction
// decisions with no hardware support beyond a cldemote-like hint.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"ripple/internal/blockseq"
	"ripple/internal/cache"
	"ripple/internal/frontend"
	"ripple/internal/opt"
	"ripple/internal/program"
	"ripple/internal/trace"
)

// AnalysisConfig controls the eviction analysis.
type AnalysisConfig struct {
	// L1I is the target I-cache geometry the ideal policy is replayed
	// against (binaries are optimized per target architecture, Sec. V).
	L1I cache.Config
	// MaxWindowBlocks caps how far back from each eviction the window
	// scan walks. Windows longer than this keep only their tail (the
	// blocks closest to the eviction carry the cue signal); 0 means the
	// package default.
	MaxWindowBlocks int
}

// DefaultAnalysisConfig analyzes for the Table II L1I.
func DefaultAnalysisConfig() AnalysisConfig {
	return AnalysisConfig{
		L1I:             cache.Config{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
		MaxWindowBlocks: 2048,
	}
}

// window is one eviction window: the victim line plus the block-trace
// index range (start, end] executed between the victim's last use and its
// ideal eviction, within one of the analyzed sources.
type window struct {
	line       uint64
	start, end int32 // block-trace indices; blocks in (start, end] form the window
}

// Analysis is the result of replaying the ideal policy over a profile:
// everything needed to emit an injection plan at any threshold.
type Analysis struct {
	Prog *program.Program
	cfg  AnalysisConfig

	// TraceBlocks is the number of profiled block executions.
	TraceBlocks int
	// Windows is the number of ideal-policy eviction windows found.
	Windows int
	// IdealMisses is the demand miss count of the ideal replay (the
	// analysis-side limit).
	IdealMisses uint64
	// Coverage aggregates the decode reports of recovering trace sources
	// (trace.Reporting): how much of the declared profile actually fed
	// the analysis after damaged regions were skipped. Nil when no source
	// reports — i.e. every profile decoded strictly or never touched a
	// packet stream.
	Coverage *SourceCoverage

	windows []window
	// members[i] lists window i's distinct blocks, closest to the
	// eviction first (the cue tie-break order). The lists are carved out
	// of fixed-size chunks; memberCap is the chunks' total capacity.
	members   [][]program.BlockID
	memberCap int
	execCount []uint32
	// cues is the per-window cue selection (threshold-independent),
	// computed by AnalyzeMulti; concurrent PlanAt callers only read it.
	cues []CueChoice
}

// Analyze profiles the block source against the ideal replacement policy
// and computes the eviction windows and their cues. The source must have
// been produced against prog's current layout, and must be replayable:
// the analysis makes two passes over it, holding O(window members) state
// instead of the materialized trace.
func Analyze(prog *program.Program, src blockseq.Source, cfg AnalysisConfig) (*Analysis, error) {
	return AnalyzeMulti(prog, []blockseq.Source{src}, cfg)
}

// AnalyzeMulti analyzes several independent profiles together: each source
// is replayed through the ideal policy separately (the I-cache state does
// not carry across), but execution counts and window membership accumulate
// into one conditional-probability table. Two uses: merging the profiles
// of multiple inputs (strengthens Fig. 13-style generalization), and
// analyzing the short fragments an LBR-style sampling profiler produces
// instead of a full PT trace (Sec. III-A mentions both trace sources).
func AnalyzeMulti(prog *program.Program, sources []blockseq.Source, cfg AnalysisConfig) (*Analysis, error) {
	if err := cfg.L1I.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.MaxWindowBlocks <= 0 {
		cfg.MaxWindowBlocks = DefaultAnalysisConfig().MaxWindowBlocks
	}

	a := &Analysis{
		Prog:      prog,
		cfg:       cfg,
		execCount: make([]uint32, prog.NumBlocks()),
	}
	sc := &memberScan{mark: make([]uint32, prog.NumBlocks())}
	for _, src := range sources {
		if src == nil {
			continue
		}
		n, err := a.analyzeOne(src, sc)
		if err != nil {
			return nil, err
		}
		a.TraceBlocks += n
	}
	if a.TraceBlocks == 0 {
		return nil, fmt.Errorf("core: empty trace")
	}
	a.Windows = len(a.windows)
	a.memberCap = sc.allocated
	// The dedup marks are done with: reuse them as the cue counter.
	clear(sc.mark)
	a.cues = a.selectCues(sc.mark)
	a.Coverage = gatherCoverage(sources)
	return a, nil
}

// SourceCoverage sums the damage accounting of every analyzed source
// that decoded in recovery mode: of Declared profiled blocks, Decoded
// survived and Lost fell inside Regions damaged stream regions.
type SourceCoverage struct {
	Declared uint64 `json:"declared"`
	Decoded  uint64 `json:"decoded"`
	Lost     uint64 `json:"lost,omitempty"`
	Regions  int    `json:"regions,omitempty"`
}

// Fraction returns the decoded share of the declared profile in [0, 1]
// (1 when nothing was declared).
func (c SourceCoverage) Fraction() float64 {
	if c.Declared == 0 {
		return 1
	}
	return float64(c.Decoded) / float64(c.Declared)
}

// gatherCoverage collects decode reports after the analysis passes have
// completed (a recovering source publishes its report at the end of a
// pass); nil when no source exposes one.
func gatherCoverage(sources []blockseq.Source) *SourceCoverage {
	var cov SourceCoverage
	found := false
	for _, src := range sources {
		r, ok := src.(trace.Reporting)
		if !ok {
			continue
		}
		rep, ok := r.DecodeReport()
		if !ok {
			continue
		}
		found = true
		cov.Declared += rep.Declared
		cov.Decoded += rep.Decoded
		cov.Lost += rep.BlocksLost()
		cov.Regions += len(rep.Regions)
	}
	if !found {
		return nil
	}
	return &cov
}

// memberChunkBlocks is the size of one chunk of window member lists. A
// list never straddles chunks, so each chunk may strand up to one
// window's bound at its tail; at 256 KB per chunk against at most 8 KB
// per list (the default 2048-block window cap) that slack stays small.
const memberChunkBlocks = 1 << 16

// memberScan is the scratch state of the window-membership pass, shared
// by every source of one analysis.
type memberScan struct {
	// mark/markGen implement O(1) per-window candidate deduplication.
	mark    []uint32
	markGen uint32
	// free is the unused tail of the current member chunk; allocated
	// sums the capacity of every chunk handed out.
	free      []program.BlockID
	allocated int
}

// room returns space for a member list of up to bound blocks. remaining
// bounds the lists still to come in this pass (bound included), so the
// last chunk is no larger than the pass can use. Chunks are allocated at
// their final size: the buffer never grows by copying.
func (sc *memberScan) room(bound, remaining int) []program.BlockID {
	if len(sc.free) < bound {
		sc.free = make([]program.BlockID, min(max(memberChunkBlocks, bound), remaining))
		sc.allocated += len(sc.free)
	}
	return sc.free
}

// take keeps the first n blocks of the last room as one member list.
func (sc *memberScan) take(n int) []program.BlockID {
	list := sc.free[:n:n]
	sc.free = sc.free[n:]
	return list
}

// teeBufBlocks bounds how far the Tee'd analysis branches may run apart:
// big enough that the branches rarely stall on each other, small enough
// to stay cache-resident.
const teeBufBlocks = 4096

// analyzeOne expands one source into its demand line stream (identical to
// what the simulator fetches — Sec. III-A: no speculative accesses),
// replays Belady's MIN over it logging evictions, and records each
// window's distinct blocks. It returns the source's block count.
//
// The source is streamed twice: one shared decode feeds both the
// execution-count scan and the demand-line expansion (whose output the
// MIN oracle inherently needs in full) through a bounded-buffer Tee, and
// a ring-buffered replay then serves every window's block range without
// the materialized trace — seeking past unneeded gaps when the pass
// supports it.
func (a *Analysis) analyzeOne(src blockseq.Source, sc *memberScan) (int, error) {
	blocksHint := 0
	if n, ok := blockseq.LenHint(src); ok {
		blocksHint = n
	}
	branches := blockseq.Tee(src.Open(), 2, teeBufBlocks)
	var (
		length   int
		countErr error
		done     = make(chan struct{})
	)
	go func() {
		defer close(done)
		counts := branches[0]
		for {
			bid, ok := counts.Next()
			if !ok {
				countErr = counts.Err()
				return
			}
			a.execCount[bid]++
			length++
		}
	}()
	lines, blockOf, lineErr := frontend.DemandLinesSeq(a.Prog, branches[1], blocksHint)
	<-done
	if countErr != nil {
		return 0, fmt.Errorf("core: %w", countErr)
	}
	if lineErr != nil {
		return 0, fmt.Errorf("core: %w", lineErr)
	}
	if length == 0 {
		return 0, nil
	}
	res, err := opt.SimulateSource(opt.LineEvents(lines), a.cfg.L1I, opt.ModeMIN, true)
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	a.IdealMisses += res.DemandMisses

	first := len(a.windows)
	numBlocks := a.Prog.NumBlocks()
	remaining := 0 // Σ min(span, NumBlocks) over this source's windows
	for _, ev := range res.EvictionLog {
		w := window{
			line:  ev.Line,
			start: blockOf[ev.LastUse],
			end:   blockOf[ev.At],
		}
		if int(w.end-w.start) > a.cfg.MaxWindowBlocks {
			w.start = w.end - int32(a.cfg.MaxWindowBlocks)
		}
		if w.end <= w.start {
			continue // eviction triggered by the very next block: no window
		}
		a.windows = append(a.windows, w)
		remaining += min(int(w.end-w.start), numBlocks)
	}

	a.members = slices.Grow(a.members, len(a.windows)-first)
	err = replayWindows(src, a.windows[first:], a.cfg.MaxWindowBlocks, func(w window, at func(int32) program.BlockID) {
		bound := min(int(w.end-w.start), numBlocks)
		list := sc.room(bound, remaining)
		remaining -= bound
		sc.markGen++
		n := 0
		for ti := w.end; ti > w.start; ti-- {
			bid := at(ti)
			if sc.mark[bid] == sc.markGen {
				continue // already listed for this window
			}
			sc.mark[bid] = sc.markGen
			list[n] = bid
			n++
		}
		a.members = append(a.members, sc.take(n))
	})
	if err != nil {
		return 0, err
	}
	return length, nil
}

// replayWindows streams src once and visits each window with an accessor
// for the blocks in its (start, end] range. It relies on two invariants:
// windows are ordered by non-decreasing end (the eviction log is in
// eviction-time order and blockOf is monotone), and every window spans at
// most maxWin blocks (Analyze clamps longer ones) — so a ring of the last
// maxWin blocks always covers the visited window.
//
// When the pass supports blockseq.Seeker, gaps between windows are
// skipped instead of decoded: an indexed trace pass restarts at a sync
// point, so each window costs at most its span plus one sync interval of
// decode work instead of the whole prefix. Window starts are not
// monotone (a later window can reach further back than the current one),
// so a seek may only skip to the earliest start any remaining window
// still reads past — the suffix minimum below.
func replayWindows(src blockseq.Source, windows []window, maxWin int, visit func(w window, at func(int32) program.BlockID)) error {
	if len(windows) == 0 {
		return nil
	}
	ring := make([]program.BlockID, maxWin)
	at := func(ti int32) program.BlockID { return ring[int(ti)%maxWin] }
	seq := src.Open()
	sk, seekable := seq.(blockseq.Seeker)
	var minStart []int32
	if seekable {
		minStart = make([]int32, len(windows))
		m := int32(1<<31 - 1)
		for i := len(windows) - 1; i >= 0; i-- {
			if windows[i].start < m {
				m = windows[i].start
			}
			minStart[i] = m
		}
	}
	pos := int32(-1) // index of the last block read
	for i, w := range windows {
		if seekable && minStart[i] > pos {
			// Blocks (pos, minStart[i]] fall inside no remaining window;
			// skipping them never starves the ring: every block a later
			// window reads is > its start >= minStart[i].
			if err := sk.SeekBlock(int(minStart[i]) + 1); err != nil {
				if !errors.Is(err, blockseq.ErrNotSeekable) {
					return fmt.Errorf("core: %w", err)
				}
				seekable = false // wrapper without a seekable inner pass
			} else {
				pos = minStart[i]
			}
		}
		for pos < w.end {
			bid, ok := seq.Next()
			if !ok {
				if err := seq.Err(); err != nil {
					return fmt.Errorf("core: %w", err)
				}
				return fmt.Errorf("core: source replay ended at block %d but window extends to %d (source not replayable?)", pos, w.end)
			}
			pos++
			ring[int(pos)%maxWin] = bid
		}
		visit(w, at)
	}
	return nil
}

// Probability returns P(evict line | execute block): the fraction of the
// block's executions that fall inside one of the line's eviction windows.
// It scans every window on each call; cue selection counts densely
// instead (see selectCues).
func (a *Analysis) Probability(line uint64, block program.BlockID) float64 {
	var n uint32
	for i, w := range a.windows {
		if w.line == line && slices.Contains(a.members[i], block) {
			n++
		}
	}
	if n == 0 || a.execCount[block] == 0 {
		return 0
	}
	return float64(n) / float64(a.execCount[block])
}

// CueChoice reports the selected cue block of one eviction window.
type CueChoice struct {
	Line        uint64
	Block       program.BlockID
	Probability float64
}

// selectCues picks, for every eviction window, the candidate block with
// the highest conditional probability (ties broken toward the block
// closest to the eviction — "arbitrarily" per the paper, but
// deterministic here). The selection does not depend on the invalidation
// threshold, so it is computed once; PlanAt then filters it per
// threshold. The result is in window order.
//
// Windows are grouped by victim line so that one line's probability
// table fits a dense per-block counter: count every member of the line's
// windows, pick each window's cue by scanning its list, then zero the
// touched counters for the next line. count must be all zero and
// NumBlocks long; it is left all zero.
func (a *Analysis) selectCues(count []uint32) []CueChoice {
	order := a.windowsByLine()
	picks := make([]CueChoice, len(a.windows))
	for lo := 0; lo < len(order); {
		line := a.windows[order[lo]].line
		hi := lo + 1
		for hi < len(order) && a.windows[order[hi]].line == line {
			hi++
		}
		group := order[lo:hi]
		lo = hi
		for _, wi := range group {
			for _, b := range a.members[wi] {
				count[b]++
			}
		}
		for _, wi := range group {
			best := CueChoice{Line: line, Block: program.NoBlock}
			for _, b := range a.members[wi] {
				if p := float64(count[b]) / float64(a.execCount[b]); p > best.Probability {
					best.Block = b
					best.Probability = p
				}
			}
			picks[wi] = best
		}
		for _, wi := range group {
			for _, b := range a.members[wi] {
				count[b] = 0
			}
		}
	}
	cues := picks[:0]
	for _, c := range picks {
		if c.Block != program.NoBlock {
			cues = append(cues, c)
		}
	}
	return cues
}

// windowsByLine returns the window indices ordered by victim line, and
// in window order within one line.
func (a *Analysis) windowsByLine() []int32 {
	order := make([]int32, len(a.windows))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int {
		if c := cmp.Compare(a.windows[x].line, a.windows[y].line); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	return order
}

// Candidates returns the candidate cue blocks of the given victim line
// with their conditional probabilities, sorted by descending probability —
// the data behind the Fig. 5 worked example.
func (a *Analysis) Candidates(line uint64) []CueChoice {
	count := make(map[program.BlockID]uint32)
	for i, w := range a.windows {
		if w.line != line {
			continue
		}
		for _, b := range a.members[i] {
			count[b]++
		}
	}
	var out []CueChoice
	for b, n := range count {
		out = append(out, CueChoice{
			Line:        line,
			Block:       b,
			Probability: float64(n) / float64(a.execCount[b]),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Probability != out[j].Probability {
			return out[i].Probability > out[j].Probability
		}
		return out[i].Block < out[j].Block
	})
	return out
}

// MostEvictedLine returns the victim line with the most eviction windows
// and that count — the natural subject for a Fig. 5-style worked example.
func (a *Analysis) MostEvictedLine() (uint64, int) {
	counts := make(map[uint64]int)
	for _, w := range a.windows {
		counts[w.line]++
	}
	var best uint64
	bestN := 0
	for line, n := range counts {
		if n > bestN || (n == bestN && line < best) {
			best, bestN = line, n
		}
	}
	return best, bestN
}
