// Benchmarks: one per paper table/figure (regenerating the artifact via
// the experiment suite) plus micro-benchmarks of the substrates. The
// experiment benches share one cached suite, so `go test -bench=.`
// computes each underlying simulation once; per-experiment numbers measure
// the incremental cost of that artifact given the shared cache.
package ripple_test

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"ripple"
	"ripple/internal/experiment"
	"ripple/internal/frontend"
)

var (
	suiteOnce  sync.Once
	benchSuite *experiment.Suite
)

// suite returns the shared benchmark suite: all nine applications at a
// reduced trace length so the whole table set regenerates in minutes.
func suite() *experiment.Suite {
	suiteOnce.Do(func() {
		benchSuite = experiment.New(experiment.Config{
			TraceBlocks:  300_000,
			WarmupBlocks: 100_000,
			Thresholds:   []float64{0.45, 0.65, 0.85},
			Log:          nil,
		})
	})
	return benchSuite
}

func benchExperiment(b *testing.B, id string) {
	s := suite()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Tables(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1(b *testing.B)        { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)        { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)        { benchExperiment(b, "fig3") }
func BenchmarkTab1(b *testing.B)        { benchExperiment(b, "tab1") }
func BenchmarkTab2(b *testing.B)        { benchExperiment(b, "tab2") }
func BenchmarkObs12(b *testing.B)       { benchExperiment(b, "obs12") }
func BenchmarkCompulsory(b *testing.B)  { benchExperiment(b, "compulsory") }
func BenchmarkFig5(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)        { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)       { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)       { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)       { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)       { benchExperiment(b, "fig13") }
func BenchmarkDemote(b *testing.B)      { benchExperiment(b, "demote") }
func BenchmarkGranularity(b *testing.B) { benchExperiment(b, "granularity") }

// Extension experiments (grounded in the paper's text; see DESIGN.md).
func BenchmarkArch(b *testing.B)       { benchExperiment(b, "arch") }
func BenchmarkMerged(b *testing.B)     { benchExperiment(b, "merged") }
func BenchmarkLBR(b *testing.B)        { benchExperiment(b, "lbr") }
func BenchmarkXPrefetch(b *testing.B)  { benchExperiment(b, "xprefetch") }
func BenchmarkLayout(b *testing.B)     { benchExperiment(b, "layout") }
func BenchmarkCodeLayout(b *testing.B) { benchExperiment(b, "codelayout") }
func BenchmarkWindowCap(b *testing.B)  { benchExperiment(b, "windowcap") }
func BenchmarkHintCost(b *testing.B)   { benchExperiment(b, "hintcost") }
func BenchmarkPhases(b *testing.B)     { benchExperiment(b, "phases") }

// --- parallel runner benchmarks ---

// benchSuiteRun measures a full fresh-suite computation of fig3 (three
// applications, six policies each — 18 independent simulations) at a given
// worker count. A fresh suite per iteration keeps the in-process cache
// cold, so this measures real simulation throughput, serial vs parallel.
func benchSuiteRun(b *testing.B, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiment.New(experiment.Config{
			Apps:         []string{"finagle-http", "kafka", "verilator"},
			TraceBlocks:  60_000,
			WarmupBlocks: 20_000,
			Thresholds:   []float64{0.55, 0.95},
			Workers:      workers,
			Log:          nil,
		})
		if _, err := s.Tables("fig3"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuiteSerial(b *testing.B)    { benchSuiteRun(b, 1) }
func BenchmarkSuiteParallel4(b *testing.B) { benchSuiteRun(b, 4) }

// --- substrate micro-benchmarks ---

func benchApp(b *testing.B) *ripple.App {
	b.Helper()
	app, err := ripple.BuildWorkload(ripple.MustWorkload("finagle-http"))
	if err != nil {
		b.Fatal(err)
	}
	return app
}

// BenchmarkWorkloadTrace measures trace synthesis throughput (blocks/op
// scaled by b.N).
func BenchmarkWorkloadTrace(b *testing.B) {
	app := benchApp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = app.Trace(0, 50_000)
	}
}

// BenchmarkTraceEncode measures PT-packet encoding of a 50k-block trace.
func BenchmarkTraceEncode(b *testing.B) {
	app := benchApp(b)
	tr := app.Trace(0, 50_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := ripple.EncodeTrace(&buf, app.Prog, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceDecode measures CFG-walking decode of the same trace.
func BenchmarkTraceDecode(b *testing.B) {
	app := benchApp(b)
	tr := app.Trace(0, 50_000)
	var buf bytes.Buffer
	if _, err := ripple.EncodeTrace(&buf, app.Prog, tr); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ripple.DecodeTrace(bytes.NewReader(raw), app.Prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateLRU measures the frontend simulator without
// prefetching.
func BenchmarkSimulateLRU(b *testing.B) {
	app := benchApp(b)
	tr := app.Trace(0, 50_000)
	params := ripple.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, _ := ripple.NewPolicy("lru")
		if _, err := ripple.Simulate(params, app.Prog, tr, ripple.Options{Policy: pol}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateFDIP measures the frontend with the branch-predicted
// prefetcher attached.
func BenchmarkSimulateFDIP(b *testing.B) {
	app := benchApp(b)
	tr := app.Trace(0, 50_000)
	params := ripple.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, _ := ripple.NewPolicy("lru")
		pf, _ := ripple.NewPrefetcher("fdip", app.Prog)
		if _, err := ripple.Simulate(params, app.Prog, tr, ripple.Options{Policy: pol, Prefetcher: pf}); err != nil {
			b.Fatal(err)
		}
	}
}

// runManyConfigs is the lockstep input of BenchmarkRunMany: n LRU+FDIP
// configurations, each with its own policy and prefetcher instance.
func runManyConfigs(prog *ripple.Program, n int) []ripple.Options {
	opts := make([]ripple.Options, n)
	for i := range opts {
		pol, _ := ripple.NewPolicy("lru")
		pf, _ := ripple.NewPrefetcher("fdip", prog)
		opts[i] = ripple.Options{Policy: pol, Prefetcher: pf}
	}
	return opts
}

// BenchmarkRunMany measures ten LRU+FDIP configurations simulated in
// lockstep: one pass over the trace, one demand-line walk and one FDIP
// walk feeding ten L1Is. Compare with ten BenchmarkSimulateFDIP runs.
func BenchmarkRunMany(b *testing.B) {
	app := benchApp(b)
	tr := app.Trace(0, 50_000)
	params := ripple.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := frontend.RunMany(params, app.Prog, ripple.SliceSource(tr), runManyConfigs(app.Prog, 10)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyze measures Ripple's eviction analysis (MIN replay +
// window scan + probability tables).
func BenchmarkAnalyze(b *testing.B) {
	app := benchApp(b)
	tr := app.Trace(0, 50_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ripple.Analyze(app.Prog, tr, ripple.DefaultAnalysisConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAnalyzeAllocs pins the allocation count of one Analyze over the
// BenchmarkAnalyze input: a deterministic gate on the analysis's
// per-call structure (member chunks, window index, cue picks) where
// ns/op would be too noisy to gate on. Measured 202 on go1.24 linux/amd64;
// the map-keyed cue table it replaced made 2,243.
func TestAnalyzeAllocs(t *testing.T) {
	app, err := ripple.BuildWorkload(ripple.MustWorkload("finagle-http"))
	if err != nil {
		t.Fatal(err)
	}
	tr := app.Trace(0, 50_000)
	cfg := ripple.DefaultAnalysisConfig()
	avg := testing.AllocsPerRun(3, func() {
		if _, err := ripple.Analyze(app.Prog, tr, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Analyze: %.0f allocs/op", avg)
	if avg > 300 {
		t.Errorf("Analyze allocates %.0f times per call, want <= 300", avg)
	}
}

// TestSimulateAllocs pins the allocation count of one Simulate over the
// BenchmarkSimulateLRU and BenchmarkSimulateFDIP inputs. The outer
// hierarchy is a shared prewarmed snapshot read through per-run
// overlays, in-flight prefetches live in a per-way array, and the FDIP
// fetch target queue is a fixed ring, so the counts are fixed per run
// rather than per block. Measured 18 (LRU) and 28 (FDIP) on go1.24
// linux/amd64; with a map of in-flight prefetches and a copying FTQ they
// were 22 and 35, and with per-run outer caches and a reslicing FTQ 91
// and 7,254.
func TestSimulateAllocs(t *testing.T) {
	app, err := ripple.BuildWorkload(ripple.MustWorkload("finagle-http"))
	if err != nil {
		t.Fatal(err)
	}
	tr := app.Trace(0, 50_000)
	params := ripple.DefaultParams()
	for _, c := range []struct {
		prefetcher string
		max        float64
	}{{"none", 20}, {"fdip", 32}} {
		avg := testing.AllocsPerRun(3, func() {
			pol, _ := ripple.NewPolicy("lru")
			pf, _ := ripple.NewPrefetcher(c.prefetcher, app.Prog)
			if _, err := ripple.Simulate(params, app.Prog, tr, ripple.Options{Policy: pol, Prefetcher: pf}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("Simulate (lru, %s): %.0f allocs/op", c.prefetcher, avg)
		if avg > c.max {
			t.Errorf("Simulate (lru, %s) allocates %.0f times per call, want <= %.0f", c.prefetcher, avg, c.max)
		}
	}
}

// TestRunManyAllocs pins the allocation count of one BenchmarkRunMany
// iteration: ten configurations' fixed state (policy, prefetcher, L1I,
// outer overlay, in-flight slots) plus the shared walks, none of it per
// block. Measured 255 on go1.24 linux/amd64 (ten Simulate calls make
// 290).
func TestRunManyAllocs(t *testing.T) {
	app, err := ripple.BuildWorkload(ripple.MustWorkload("finagle-http"))
	if err != nil {
		t.Fatal(err)
	}
	tr := app.Trace(0, 50_000)
	params := ripple.DefaultParams()
	avg := testing.AllocsPerRun(3, func() {
		if _, err := frontend.RunMany(params, app.Prog, ripple.SliceSource(tr), runManyConfigs(app.Prog, 10)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("RunMany (10 x lru, fdip): %.0f allocs/op", avg)
	if avg > 280 {
		t.Errorf("RunMany allocates %.0f times per call, want <= 280", avg)
	}
}

// tuneEpoch is one ripplewatch epoch body over a fixed 4096-block
// finagle-http window: Analyze, then the default 11-run threshold sweep
// (lru, fdip) on a fresh two-worker pool.
type tuneEpoch struct {
	app *ripple.App
	win []ripple.BlockID
	cfg ripple.TuneConfig
}

func newTuneEpoch(tb testing.TB) *tuneEpoch {
	tb.Helper()
	app, err := ripple.BuildWorkload(ripple.MustWorkload("finagle-http"))
	if err != nil {
		tb.Fatal(err)
	}
	return &tuneEpoch{
		app: app,
		win: app.Trace(0, 5*4096)[4*4096:],
		cfg: ripple.TuneConfig{Params: ripple.DefaultParams(), Policy: "lru", Prefetcher: "fdip"},
	}
}

func (e *tuneEpoch) run(tb testing.TB) {
	src := ripple.SliceSource(e.win)
	a, err := ripple.AnalyzeSource(e.app.Prog, src, ripple.DefaultAnalysisConfig())
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := ripple.TuneParallel(a, src, e.cfg, ripple.ParallelOptions{Workers: 2}); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkTuneEpoch measures one rolling re-analysis epoch end to end:
// the analysis plus its baseline and ten threshold simulations.
func BenchmarkTuneEpoch(b *testing.B) {
	e := newTuneEpoch(b)
	e.run(b) // builds the text's shared outer-hierarchy snapshot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.run(b)
	}
}

// TestTuneEpochAllocs gates the bytes one BenchmarkTuneEpoch epoch
// allocates. The simulations run padding-placed plans as overlays on the
// one program, so an epoch copies no program image. Measured 6.4 MB on
// go1.24 linux/amd64; with a Blocks copy per plan and a per-epoch
// program fingerprint it was 16.4 MB.
func TestTuneEpochAllocs(t *testing.T) {
	e := newTuneEpoch(t)
	e.run(t)
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		e.run(t)
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("tune epoch: %.2f MB/op", perOp/1e6)
	if perOp > 8<<20 {
		t.Errorf("tune epoch allocates %.2f MB per call, want <= 8 MiB", perOp/1e6)
	}
}

// --- streaming vs materialized allocation benchmarks ---

// benchSimStream simulates from a workload stream source built inside
// the loop: the per-iteration allocation covers the walker plus the
// simulator's fixed state, and must stay flat as the trace grows (the
// streaming pipeline's O(1) claim; compare the 50k and 200k B/op).
func benchSimStream(b *testing.B, blocks int) {
	app := benchApp(b)
	params := ripple.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, _ := ripple.NewPolicy("lru")
		if _, err := ripple.SimulateSource(params, app.Prog, app.Stream(0, blocks), ripple.Options{Policy: pol}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSimSlice is the materialized path the streaming pipeline
// replaced: synthesize the whole trace, then simulate it. Allocation
// scales with the trace length.
func benchSimSlice(b *testing.B, blocks int) {
	app := benchApp(b)
	params := ripple.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, _ := ripple.NewPolicy("lru")
		tr := app.Trace(0, blocks)
		if _, err := ripple.Simulate(params, app.Prog, tr, ripple.Options{Policy: pol}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateStream50k(b *testing.B)  { benchSimStream(b, 50_000) }
func BenchmarkSimulateStream200k(b *testing.B) { benchSimStream(b, 200_000) }
func BenchmarkSimulateSlice50k(b *testing.B)   { benchSimSlice(b, 50_000) }
func BenchmarkSimulateSlice200k(b *testing.B)  { benchSimSlice(b, 200_000) }

// BenchmarkIdealReplay measures the Demand-MIN oracle over a recorded
// stream: the simulated accesses are drained from AccessEventSource once,
// outside the timer, so each iteration is the oracle replay alone.
func BenchmarkIdealReplay(b *testing.B) {
	app := benchApp(b)
	tr := app.Trace(0, 50_000)
	params := ripple.DefaultParams()
	seq := ripple.AccessEventSource(params, app.Prog, ripple.SliceSource(tr), func() (ripple.Options, error) {
		pol, err := ripple.NewPolicy("lru")
		return ripple.Options{Policy: pol}, err
	}).Open()
	var stream []ripple.AccessEvent
	for e, ok := seq.Next(); ok; e, ok = seq.Next() {
		stream = append(stream, e)
	}
	if err := seq.Err(); err != nil {
		b.Fatal(err)
	}
	events := ripple.SliceEventSource(stream)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ripple.IdealMissesSource(events, params.L1I); err != nil {
			b.Fatal(err)
		}
	}
}
