package main

import (
	"os"
	"path/filepath"
	"time"

	"ripple/internal/blockseq"
	"ripple/internal/cache"
	"ripple/internal/core"
	"ripple/internal/frontend"
	"ripple/internal/opt"
	"ripple/internal/program"
	"ripple/internal/runner"
	"ripple/internal/watch"
)

// layers are the modules the traced run attributes time to; "bench" is
// the benchmark's own time outside every layer call.
var layers = []string{"workload", "trace", "frontend", "opt", "core", "program", "runner", "watch", "bench"}

// layerOut carries the workload-specific figures of a traced run.
type layerOut struct {
	// analysisInUnit is false when the measured unit runs no analysis
	// (the sweep): its analysis figures then come from the set-up, and
	// its analysis shares are 0.
	analysisInUnit bool
	profileBlocks  int

	analyzeS, tuneS         float64 // per unit (per set-up for the sweep)
	analyzeMsP50, tuneMsP50 float64 // per call
	analyzeAllocMB          float64
	windows                 int
	dlS, minS               float64 // standalone demand-line expansion and MIN over the same analysis inputs
	evictions               int
	planAtS                 float64

	runNone, runFdip []float64 // seconds per core.RunPlan call
	simBlocks        uint64
	counts           cache.Stats // summed L1I work counts of the simulated runs
	mispredicts      float64     // summed branch mispredictions of the FDIP runs
	fdipInstrs       uint64      // their instructions

	fingerprintMs, applyMs float64
	watchS                 float64
	watchEpochs            int
}

// fromAnalysisSpans takes the analysis and tuning times from the
// core.Analyze and core.TuneParallel spans under roots, and the window
// and allocation figures from units (when the units analyze).
func (lo *layerOut) fromAnalysisSpans(t *spanTree, roots []span, units []*unitOut) {
	var an, tu, anCalls, tuCalls []float64
	for _, r := range roots {
		a := durations(t.under(r.ID, "core.Analyze"))
		u := durations(t.under(r.ID, "core.TuneParallel"))
		an, tu = append(an, sum(a)), append(tu, sum(u))
		anCalls, tuCalls = append(anCalls, a...), append(tuCalls, u...)
	}
	lo.analyzeS, lo.tuneS = median(an), median(tu)
	lo.analyzeMsP50, lo.tuneMsP50 = 1000*median(anCalls), 1000*median(tuCalls)
	var alloc, windows []float64
	for _, u := range units {
		alloc = append(alloc, u.allocMB)
		windows = append(windows, float64(u.windows))
	}
	if len(units) > 0 {
		lo.analyzeAllocMB, lo.windows = median(alloc), int(median(windows))
	}
}

// probeStages times the two analysis stages that can be called on their
// own: demand-line expansion and the MIN replay with its eviction log,
// over the same inputs core.Analyze consumed. The rest of core.Analyze is
// window counting and cue selection.
func (b *bench) probeStages(lo *layerOut, prog *program.Program, inputs [][]program.BlockID, parent int) error {
	l1i := core.DefaultAnalysisConfig().L1I
	for _, blocks := range inputs {
		t0 := time.Now()
		id := b.begin("frontend.DemandLines", parent)
		lines, _, err := frontend.DemandLines(prog, blockseq.SliceSource(blocks))
		b.end(id)
		lo.dlS += time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		t0 = time.Now()
		id = b.begin("opt.SimulateSource", parent)
		res, err := opt.SimulateSource(opt.LineEvents(lines), l1i, opt.ModeMIN, true)
		b.end(id)
		lo.minS += time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		lo.evictions += len(res.EvictionLog)
	}
	return nil
}

// probeCommon makes the per-layer calls every workload reports: PlanAt
// over the default thresholds, core.RunPlan under none and FDIP (unless
// the units already ran them), program fingerprinting and plan
// application, and one watch.Run pass. window is the rolling window (0:
// the other workloads, which run watch over their first eight 4096-block
// epochs only).
func (b *bench) probeCommon(lo *layerOut, in *input, an *core.Analysis, plan *core.Plan, window int, parent int) error {
	t0 := time.Now()
	for _, th := range core.DefaultThresholds() {
		id := b.begin("core.PlanAt", parent)
		an.PlanAt(th)
		b.end(id)
	}
	lo.planAtS = time.Since(t0).Seconds()

	if len(lo.runFdip) == 0 {
		for _, pf := range []string{"none", "fdip"} {
			for _, pl := range []*core.Plan{nil, plan} {
				res, d, err := b.runPlan(in, pf, "lru", pl, parent)
				if err != nil {
					return err
				}
				if pf == "none" {
					lo.runNone = append(lo.runNone, d.Seconds())
				} else {
					lo.runFdip = append(lo.runFdip, d.Seconds())
				}
				lo.simBlocks += res.Blocks
				if pf == "fdip" && pl != nil {
					lo.addCounts(res)
				}
			}
		}
	}

	t0 = time.Now()
	id := b.begin("program.Fingerprint", parent)
	_, err := in.prog.Fingerprint()
	b.end(id)
	lo.fingerprintMs = ms(time.Since(t0))
	if err != nil {
		return err
	}
	t0 = time.Now()
	id = b.begin("program.ApplyPreservingLayout", parent)
	plan.ApplyPreservingLayout(in.prog)
	b.end(id)
	lo.applyMs = ms(time.Since(t0))

	wcfg := watch.Config{
		Prog:      in.prog,
		TracePath: in.tracePath,
		StatePath: filepath.Join(b.cfg.workdir, "watch.state"),
		OutDir:    filepath.Join(b.cfg.workdir, "watch"),
		Window:    window,
		Pool:      runner.New(runner.Options{Workers: poolWorkers}),
	}
	if window == 0 {
		wcfg.Window = 4096
		wcfg.MaxBlocks = 8 * 4096
	}
	for _, p := range []string{wcfg.StatePath, wcfg.OutDir} {
		if err := os.RemoveAll(p); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(wcfg.OutDir, 0o755); err != nil {
		return err
	}
	t0 = time.Now()
	id = b.begin("watch.Run", parent)
	wres, err := watch.Run(wcfg)
	b.end(id)
	lo.watchS = time.Since(t0).Seconds()
	lo.watchEpochs = wres.Epochs
	return err
}

// runPlan simulates the trace file under one configuration with plan
// applied (nil: uninjected), as a sweep cell or a tuning run does.
func (b *bench) runPlan(in *input, pf, policy string, plan *core.Plan, parent int) (frontend.Result, time.Duration, error) {
	src := fileSource(in)
	defer closeSource(src)
	cfg := core.TuneConfig{Params: frontend.DefaultParams(), Policy: policy, Prefetcher: pf}
	t0 := time.Now()
	id := b.begin("frontend.Run", parent)
	res, err := core.RunPlan(in.prog, src, cfg, plan)
	b.end(id)
	return res, time.Since(t0), err
}

// addCounts accumulates the work counts the per-layer metrics report.
// Only FDIP runs predict branches, so only they count toward
// bpred.mispredicts_pki.
func (lo *layerOut) addCounts(r frontend.Result) {
	lo.counts.Accesses += r.L1I.Accesses
	lo.counts.DemandMisses += r.L1I.DemandMisses
	lo.counts.PrefetchFills += r.L1I.PrefetchFills
	lo.counts.HintInvalidations += r.L1I.HintInvalidations
	if r.Prefetcher == "fdip" {
		lo.mispredicts += r.BranchMPKI * float64(r.Instrs) / 1000
		lo.fdipInstrs += r.Instrs
	}
}

// perLayer derives the traced run's metrics.
func perLayer(t *spanTree, plain, traced []*unitOut, lo *layerOut) map[string]metric {
	var build, encode, decode []float64
	for _, r := range t.roots("bench.setup") {
		build = append(build, durations(t.under(r.ID, "workload.Build"))...)
		encode = append(encode, durations(t.under(r.ID, "trace.EncodeSourceSync"))...)
	}
	for _, r := range t.roots("bench.check") {
		decode = append(decode, durations(t.under(r.ID, "trace.decode"))...)
	}
	blocks := float64(lo.profileBlocks)
	decodeS := median(decode)

	var walls, plainWalls, passes, runShare, computed, memHits, busy, speedup []float64
	for _, u := range traced {
		speedup = append(speedup, u.speedup)
		walls = append(walls, u.wall.Seconds())
		passes = append(passes, float64(u.decoded)/blocks)
		runShare = append(runShare, t.coveredTime(t.get(u.root), "frontend.Run").Seconds()/u.wall.Seconds())
		computed = append(computed, float64(u.pool.computed))
		memHits = append(memHits, float64(u.pool.memHits))
		busy = append(busy, u.pool.compute.Seconds()/(executors*u.wall.Seconds()))
	}
	for _, u := range plain {
		plainWalls = append(plainWalls, u.wall.Seconds())
	}
	unitS := median(walls)
	share := func(s float64) float64 {
		if !lo.analysisInUnit {
			return 0
		}
		return s / unitS
	}
	cueS := lo.analyzeS - lo.dlS - lo.minS
	bpki := 1000 * lo.mispredicts / float64(lo.fdipInstrs)
	simS := sum(lo.runNone) + sum(lo.runFdip)

	m := map[string]metric{
		"workload.build_s":             {median(build), "s"},
		"workload.encode_blocks_per_s": {blocks / median(encode), "blocks/s"},
		"trace.decode_blocks_per_s":    {blocks / decodeS, "blocks/s"},
		"trace.decode_passes":          {median(passes), "count"},
		"trace.decode_share":           {median(passes) * decodeS / unitS, "ratio"},
		"frontend.demand_lines_s":      {lo.dlS, "s"},
		"frontend.demand_lines_share":  {share(lo.dlS), "ratio"},
		"opt.min_s":                    {lo.minS, "s"},
		"opt.min_share":                {share(lo.minS), "ratio"},
		"opt.evictions":                {float64(lo.evictions), "count"},
		"core.analyze_s":               {lo.analyzeS, "s"},
		"core.cue_tables_s":            {cueS, "s"},
		"core.cue_tables_share":        {share(cueS), "ratio"},
		"core.analyze_alloc_mb":        {lo.analyzeAllocMB, "MB"},
		"core.windows":                 {float64(lo.windows), "count"},
		"core.plan_at_s":               {lo.planAtS, "s"},
		"core.tune_s":                  {lo.tuneS, "s"},
		"core.tune_share":              {share(lo.tuneS), "ratio"},
		"core.analyze_ms_p50":          {lo.analyzeMsP50, "ms"},
		"core.tune_ms_p50":             {lo.tuneMsP50, "ms"},
		"core.speedup_pct":             {median(speedup), "%"},
		"frontend.run_ms_none":         {1000 * sum(lo.runNone) / float64(len(lo.runNone)), "ms"},
		"frontend.run_ms_fdip":         {1000 * sum(lo.runFdip) / float64(len(lo.runFdip)), "ms"},
		"frontend.sim_blocks_per_s":    {float64(lo.simBlocks) / simS, "blocks/s"},
		"frontend.run_share":           {median(runShare), "ratio"},
		"cache.l1i_accesses":           {float64(lo.counts.Accesses), "count"},
		"cache.l1i_demand_misses":      {float64(lo.counts.DemandMisses), "count"},
		"cache.prefetch_fills":         {float64(lo.counts.PrefetchFills), "count"},
		"cache.hint_invalidations":     {float64(lo.counts.HintInvalidations), "count"},
		"bpred.mispredicts_pki":        {bpki, "PKI"},
		"program.fingerprint_ms":       {lo.fingerprintMs, "ms"},
		"program.apply_ms":             {lo.applyMs, "ms"},
		"runner.jobs_computed":         {median(computed), "count"},
		"runner.mem_hits":              {median(memHits), "count"},
		"runner.busy_frac":             {median(busy), "ratio"},
		"watch.run_s":                  {lo.watchS, "s"},
		"watch.epochs":                 {float64(lo.watchEpochs), "count"},
		"bench.trace_overhead_pct":     {100 * (unitS/median(plainWalls) - 1), "%"},
	}
	self := t.selfByLayer()
	for _, l := range layers {
		m[l+".self_s"] = metric{self[l].Seconds(), "s"}
	}
	m["bench.layer_coverage_pct"] = metric{100 * (1 - self["bench"].Seconds()/t.rootTime().Seconds()), "%"}
	return m
}
