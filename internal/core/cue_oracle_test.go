package core

import (
	"reflect"
	"sort"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/program"
	"ripple/internal/workload"
)

// refKey keys the reference cue table by (victim line, block).
type refKey struct {
	line  uint64
	block program.BlockID
}

// refTables is the map-keyed conditional-probability table that the
// dense per-victim counting replaced, kept as a reference oracle. It is
// rebuilt from the materialized traces and the analysis's windows, so it
// shares nothing with the member lists under test.
type refTables struct {
	prog    *program.Program
	windows []window
	exec    []uint32
	// pairs counts, for each (victim line, block), the eviction windows
	// of that line containing the block.
	pairs  map[refKey]uint32
	byLine map[uint64][]program.BlockID
	cues   []CueChoice
}

// newRefTables builds the reference tables for a multi-source analysis:
// traces[i] is source i's block sequence and perSource[i] the number of
// windows it contributed (the windows of source i follow those of source
// i-1).
func newRefTables(prog *program.Program, traces [][]program.BlockID, windows []window, perSource []int) *refTables {
	r := &refTables{
		prog:    prog,
		windows: windows,
		exec:    make([]uint32, prog.NumBlocks()),
		pairs:   make(map[refKey]uint32),
		byLine:  make(map[uint64][]program.BlockID),
	}
	for _, tr := range traces {
		for _, b := range tr {
			r.exec[b]++
		}
	}
	blocksOf := func(wi int) []program.BlockID {
		for ti, n := range perSource {
			if wi < n {
				return traces[ti]
			}
			wi -= n
		}
		panic("window index out of range")
	}
	for wi, w := range windows {
		tr := blocksOf(wi)
		seen := make(map[program.BlockID]bool)
		for ti := w.start + 1; ti <= w.end; ti++ {
			b := tr[ti]
			if seen[b] {
				continue
			}
			seen[b] = true
			k := refKey{line: w.line, block: b}
			if r.pairs[k] == 0 {
				r.byLine[w.line] = append(r.byLine[w.line], b)
			}
			r.pairs[k]++
		}
	}
	for wi, w := range windows {
		tr := blocksOf(wi)
		seen := make(map[program.BlockID]bool)
		best := CueChoice{Line: w.line, Block: program.NoBlock}
		for ti := w.end; ti > w.start; ti-- {
			b := tr[ti]
			if seen[b] {
				continue
			}
			seen[b] = true
			if p := r.prob(w.line, b); p > best.Probability {
				best.Block = b
				best.Probability = p
			}
		}
		if best.Block != program.NoBlock {
			r.cues = append(r.cues, best)
		}
	}
	return r
}

func (r *refTables) prob(line uint64, block program.BlockID) float64 {
	n := r.pairs[refKey{line: line, block: block}]
	if n == 0 || r.exec[block] == 0 {
		return 0
	}
	return float64(n) / float64(r.exec[block])
}

func (r *refTables) candidates(line uint64) []CueChoice {
	var out []CueChoice
	for _, b := range r.byLine[line] {
		out = append(out, CueChoice{Line: line, Block: b, Probability: r.prob(line, b)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Probability != out[j].Probability {
			return out[i].Probability > out[j].Probability
		}
		return out[i].Block < out[j].Block
	})
	return out
}

// planAt is the map-deduplicating PlanAt the sort-and-compact one
// replaced.
func (r *refTables) planAt(threshold float64) *Plan {
	p := &Plan{
		Program:      r.prog.Name,
		Threshold:    threshold,
		Injections:   make(map[program.BlockID][]uint64),
		WindowsTotal: len(r.windows),
	}
	planned := make(map[refKey]bool)
	for _, c := range r.cues {
		if c.Probability < threshold {
			continue
		}
		if r.prog.Block(c.Block).JIT {
			p.SkippedJIT++
			continue
		}
		if r.prog.Block(c.Block).Kernel {
			p.SkippedKernel++
			continue
		}
		p.WindowsCovered++
		k := refKey{line: c.Line, block: c.Block}
		if planned[k] {
			continue
		}
		planned[k] = true
		p.Injections[c.Block] = append(p.Injections[c.Block], c.Line)
	}
	for _, victims := range p.Injections {
		sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	}
	return p
}

// requireMatchesReference asserts bit-identical cues, probabilities,
// candidate lists and plans between a and the reference tables. It
// returns the reference plans (0.2, 0.5, 0.8) for further checks.
func requireMatchesReference(t *testing.T, a *Analysis, r *refTables) []*Plan {
	t.Helper()
	if !reflect.DeepEqual(a.windows, r.windows) {
		t.Fatal("windows differ from the reference")
	}
	if len(a.cues) != len(r.cues) {
		t.Fatalf("cue counts differ: %d vs reference %d", len(a.cues), len(r.cues))
	}
	for i := range a.cues {
		if a.cues[i] != r.cues[i] {
			t.Fatalf("cue %d differs: %+v vs reference %+v", i, a.cues[i], r.cues[i])
		}
	}
	lines := make([]uint64, 0, len(r.byLine))
	for line := range r.byLine {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	// Probability and Candidates scan every window per call: check a
	// spread of lines, not all of them.
	step := max(1, len(lines)/48)
	for i := 0; i < len(lines); i += step {
		line := lines[i]
		want := r.candidates(line)
		got := a.Candidates(line)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("candidates of line %#x differ:\n got %+v\nwant %+v", line, got, want)
		}
		for j, c := range want {
			if j >= 16 {
				break
			}
			if p := a.Probability(line, c.Block); p != c.Probability {
				t.Fatalf("P(evict %#x | exec %d) = %v, reference %v", line, c.Block, p, c.Probability)
			}
		}
		if a.Probability(line, program.BlockID(a.Prog.NumBlocks()-1)) != r.prob(line, program.BlockID(a.Prog.NumBlocks()-1)) {
			t.Fatalf("probability of line %#x for the last block differs", line)
		}
	}
	var plans []*Plan
	for _, th := range []float64{0.2, 0.5, 0.8} {
		got, want := a.PlanAt(th), r.planAt(th)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("plans at %.1f differ:\n got %+v\nwant %+v", th, got, want)
		}
		gd, err := got.Digest()
		if err != nil {
			t.Fatal(err)
		}
		wd, err := want.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if gd != wd {
			t.Fatalf("plan digests at %.1f differ: %s vs %s", th, gd, wd)
		}
		plans = append(plans, want)
	}
	return plans
}

// catalogApp builds a catalog application by name.
func catalogApp(t testing.TB, name string) *workload.App {
	t.Helper()
	m, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no catalog app %q", name)
	}
	app, err := workload.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestCueTablesMatchReference: the per-window member lists with dense
// per-victim counting select the same cues, report the same
// probabilities and candidates, and emit the same plans as the
// map-keyed table, across window caps and applications (drupal's cues
// include JIT blocks that plans must skip).
func TestCueTablesMatchReference(t *testing.T) {
	const blocks = 30_000
	for _, name := range []string{"drupal", "finagle-http", "verilator"} {
		app := catalogApp(t, name)
		tr := app.Trace(0, blocks)
		for _, maxWin := range []int{1, 64, 2048} {
			cfg := DefaultAnalysisConfig()
			cfg.MaxWindowBlocks = maxWin
			a, err := Analyze(app.Prog, blockseq.SliceSource(tr), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.Windows == 0 {
				t.Fatalf("%s cap %d: test is vacuous, no eviction windows", name, maxWin)
			}
			r := newRefTables(app.Prog, [][]program.BlockID{tr}, a.windows, []int{len(a.windows)})
			plans := requireMatchesReference(t, a, r)
			if name == "drupal" && maxWin == 2048 && plans[0].SkippedJIT == 0 {
				t.Fatal("drupal plan skipped no JIT cues: the JIT path is not exercised")
			}
		}
	}
}

// TestCueTablesMatchReferenceMulti: over three sources whose windows
// share victim lines, window counts and execution counts accumulate
// across sources into one table, exactly as the reference does.
func TestCueTablesMatchReferenceMulti(t *testing.T) {
	const blocks = 15_000
	app := catalogApp(t, "finagle-http")
	cfg := DefaultAnalysisConfig()
	cfg.MaxWindowBlocks = 256
	var (
		traces    [][]program.BlockID
		sources   []blockseq.Source
		perSource []int
		linesOf   []map[uint64]bool
	)
	for input := 0; input < 3; input++ {
		tr := app.Trace(input, blocks)
		single, err := Analyze(app.Prog, blockseq.SliceSource(tr), cfg)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
		sources = append(sources, blockseq.SliceSource(tr))
		perSource = append(perSource, len(single.windows))
		lines := make(map[uint64]bool)
		for _, w := range single.windows {
			lines[w.line] = true
		}
		linesOf = append(linesOf, lines)
	}
	shared := 0
	for line := range linesOf[0] {
		if linesOf[1][line] || linesOf[2][line] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("test is vacuous: no victim line has windows in two sources")
	}
	a, err := AnalyzeMulti(app.Prog, sources, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := newRefTables(app.Prog, traces, a.windows, perSource)
	requireMatchesReference(t, a, r)
}

// TestAnalysisMemberMemory pins the analysis's pair state: the member
// lists hold exactly one entry per (window, distinct block), at most
// Σ min(span, NumBlocks), and the chunks that hold them strand at most
// one window bound per full chunk plus one partly filled chunk.
func TestAnalysisMemberMemory(t *testing.T) {
	app := catalogApp(t, "drupal")
	tr := app.Trace(0, 40_000)
	cfg := DefaultAnalysisConfig()
	a, err := Analyze(app.Prog, blockseq.SliceSource(tr), cfg)
	if err != nil {
		t.Fatal(err)
	}
	distinct, spans, listed := 0, 0, 0
	for i, w := range a.windows {
		seen := make(map[program.BlockID]bool)
		for ti := w.start + 1; ti <= w.end; ti++ {
			seen[tr[ti]] = true
		}
		distinct += len(seen)
		spans += min(int(w.end-w.start), app.Prog.NumBlocks())
		listed += len(a.members[i])
	}
	if listed != distinct {
		t.Fatalf("member lists hold %d entries, want Σ distinct blocks per window = %d", listed, distinct)
	}
	if listed > spans {
		t.Fatalf("member lists hold %d entries, above Σ min(span, NumBlocks) = %d", listed, spans)
	}
	if distinct < 4*memberChunkBlocks {
		t.Fatalf("test is vacuous: %d member entries fill fewer than four chunks", distinct)
	}
	maxBound := min(cfg.MaxWindowBlocks, app.Prog.NumBlocks())
	slack := distinct*maxBound/(memberChunkBlocks-maxBound) + memberChunkBlocks
	if a.memberCap < listed || a.memberCap > distinct+slack {
		t.Fatalf("member chunks hold %d entries for %d listed, want at most %d", a.memberCap, listed, distinct+slack)
	}
}
