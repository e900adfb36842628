package main

import (
	"bytes"
	"os"
	"path/filepath"

	"ripple/internal/blockseq"
	"ripple/internal/core"
	"ripple/internal/frontend"
	"ripple/internal/opt"
	"ripple/internal/program"
	"ripple/internal/runner"
)

// planRun is plan-drupal: the rippleanalyze path. Each unit maps the
// trace file, analyzes it, tunes the threshold under LRU+FDIP over the
// default thresholds, saves the plan and reloads it.
type planRun struct {
	spec spec
	in   *input
	last *core.Analysis // the latest unit's analysis, for checks and probes
	plan *core.Plan
}

func tuneConfig() core.TuneConfig {
	return core.TuneConfig{Params: frontend.DefaultParams(), Policy: "lru", Prefetcher: "fdip"}
}

func (p *planRun) setup(b *bench, parent int) error {
	in, err := b.makeInput(p.spec.app, p.spec.blocks, filepath.Join(b.cfg.workdir, "profile.pt"), parent)
	p.in = in
	return err
}

func (p *planRun) checkSetup(b *bench, parent int) { b.checkDecode(p.in, parent) }

func (p *planRun) unit(b *bench, parent int) (*unitOut, error) {
	p.last, p.plan = nil, nil // a fresh process holds no earlier analysis
	src := fileSource(p.in)
	defer closeSource(src)
	pl, err := b.analyzeAndTune(p.in, src, parent)
	if err != nil {
		return nil, err
	}
	p.last, p.plan = pl.an, pl.tuned.BestPlan
	digest, err := b.saveAndReload(p.plan, filepath.Join(b.cfg.workdir, "profile.plan"), parent)
	if err != nil {
		return nil, err
	}
	best := pl.tuned.BestPoint()
	return &unitOut{
		blocks:  pl.an.TraceBlocks,
		windows: pl.an.Windows,
		allocMB: float64(pl.alloc) / (1 << 20),
		decoded: decodedBlocks(src),
		digest:  digest,
		speedup: best.SpeedupPct,
		mpki:    best.MPKI,
		pool:    pl.pool,
	}, nil
}

func (p *planRun) checkUnits(b *bench, parent int) {
	b.checkIdealMisses(p.in.prog, blockseq.SliceSource(p.in.blocks), p.last, parent)
}

func (p *planRun) probe(b *bench, parent int, tree *spanTree, traced []*unitOut) (*layerOut, error) {
	lo := &layerOut{analysisInUnit: true, profileBlocks: len(p.in.blocks)}
	lo.fromAnalysisSpans(tree, tree.roots("bench.unit"), traced)
	if err := b.probeStages(lo, p.in.prog, [][]program.BlockID{p.in.blocks}, parent); err != nil {
		return nil, err
	}
	return lo, b.probeCommon(lo, p.in, p.last, p.plan, 0, parent)
}

// planned is the outcome of analyzeAndTune.
type planned struct {
	an    *core.Analysis
	tuned *core.TuneResult
	alloc uint64    // heap bytes allocated inside core.Analyze
	pool  poolStats // the tuning pool's work
}

// analyzeAndTune is the rippleanalyze core: core.Analyze, then
// core.TuneParallel on a fresh pool keyed by the trace file's identity.
func (b *bench) analyzeAndTune(in *input, src blockseq.Source, parent int) (*planned, error) {
	a0 := allocBytes()
	id := b.begin("core.Analyze", parent)
	an, err := core.Analyze(in.prog, src, core.DefaultAnalysisConfig())
	b.end(id)
	if err != nil {
		return nil, err
	}
	pl := &planned{an: an, alloc: allocBytes() - a0}
	pool := runner.New(runner.Options{Workers: poolWorkers})
	id = b.begin("core.TuneParallel", parent)
	pl.tuned, err = core.TuneParallel(an, src, tuneConfig(), core.ParallelOptions{Pool: pool, SourceID: in.fileID})
	b.end(id)
	if err != nil {
		return nil, err
	}
	pl.pool = statsOf(pool)
	return pl, nil
}

func statsOf(p *runner.Pool) poolStats {
	st := p.Stats()
	return poolStats{computed: st.Computed, memHits: st.MemHits, compute: st.ComputeTime}
}

// saveAndReload writes the plan to path, reads it back with
// core.LoadPlan and checks that the reloaded plan has the same digest,
// which it returns.
func (b *bench) saveAndReload(plan *core.Plan, path string, parent int) (string, error) {
	id := b.begin("core.Plan.Save", parent)
	err := savePlanFile(path, plan)
	b.end(id)
	if err != nil {
		return "", err
	}
	if b.cfg.corrupt == "plan" {
		if err := corruptFile(path); err != nil {
			return "", err
		}
	}
	id = b.begin("core.Plan.Digest", parent)
	want, err := plan.Digest()
	b.end(id)
	if err != nil {
		return "", err
	}
	id = b.begin("core.LoadPlan", parent)
	got, err := loadPlanDigest(path)
	b.end(id)
	b.check(err == nil && got == want, "saved plan reloads to digest %.16s (err %v), want %.16s", got, err, want)
	return want, nil
}

func loadPlanDigest(path string) (string, error) {
	plan, err := loadPlanFile(path)
	if err != nil {
		return "", err
	}
	return plan.Digest()
}

func savePlanFile(path string, plan *core.Plan) error {
	var buf bytes.Buffer
	if err := plan.Save(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func loadPlanFile(path string) (*core.Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadPlan(f)
}

// checkDecode drains the trace file once and checks that it decodes to
// exactly the generated block sequence.
func (b *bench) checkDecode(in *input, parent int) {
	src := fileSource(in)
	defer closeSource(src)
	id := b.begin("trace.decode", parent)
	got, n, err := seqHash(src)
	b.end(id)
	b.check(err == nil && got == in.hash, "trace decodes to %d blocks with hash %.16s (err %v), generated %d blocks with hash %.16s",
		n, got, err, len(in.blocks), in.hash)
}

// checkIdealMisses checks the analysis's ideal miss count against an
// independent MIN replay of the demand stream.
func (b *bench) checkIdealMisses(prog *program.Program, src blockseq.Source, an *core.Analysis, parent int) {
	if an == nil {
		b.check(false, "no analysis completed")
		return
	}
	id := b.begin("opt.SimulateSource", parent)
	res, err := opt.SimulateSource(frontend.DemandEvents(prog, src), core.DefaultAnalysisConfig().L1I, opt.ModeMIN, false)
	b.end(id)
	b.check(err == nil && res.DemandMisses == an.IdealMisses,
		"analysis reports %d ideal misses, independent MIN replay %d (err %v)", an.IdealMisses, res.DemandMisses, err)
}
