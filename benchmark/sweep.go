package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"ripple/internal/blockseq"
	"ripple/internal/core"
	"ripple/internal/frontend"
	"ripple/internal/program"
	"ripple/internal/replacement"
	"ripple/internal/runner"
)

// sweepRun is sweep-verilator: a ripplesim-style grid through
// runner.Pool. Every replacement policy under each prefetcher runs
// uninjected and with the plan made in set-up (rippleanalyze's path,
// then saved and reloaded as ripplesim would).
type sweepRun struct {
	spec  spec
	in    *input
	an    *core.Analysis
	plan  *core.Plan // the reloaded plan the grid applies
	saved *core.Plan // the plan as tuned, before the save/reload round trip
	alloc uint64
	last  []frontend.Result // the latest grid pass, in grid order
}

// sweepPrefetchers are the grid's prefetch configurations.
var sweepPrefetchers = []string{"none", "fdip"}

// cell is one grid point.
type cell struct {
	policy, prefetcher string
	planned            bool
}

func grid() []cell {
	var out []cell
	for _, pol := range replacement.Names() {
		for _, pf := range sweepPrefetchers {
			out = append(out, cell{pol, pf, false}, cell{pol, pf, true})
		}
	}
	return out
}

func (s *sweepRun) setup(b *bench, parent int) error {
	in, err := b.makeInput(s.spec.app, s.spec.blocks, filepath.Join(b.cfg.workdir, "profile.pt"), parent)
	if err != nil {
		return err
	}
	s.in = in
	src := fileSource(in)
	defer closeSource(src)
	pl, err := b.analyzeAndTune(in, src, parent)
	if err != nil {
		return err
	}
	s.an, s.saved, s.alloc = pl.an, pl.tuned.BestPlan, pl.alloc
	path := filepath.Join(b.cfg.workdir, "profile.plan")
	id := b.begin("core.Plan.Save", parent)
	err = savePlanFile(path, s.saved)
	b.end(id)
	if err != nil {
		return err
	}
	if b.cfg.corrupt == "plan" {
		if err := corruptFile(path); err != nil {
			return err
		}
	}
	id = b.begin("core.LoadPlan", parent)
	s.plan, err = loadPlanFile(path)
	b.end(id)
	return err
}

func (s *sweepRun) checkSetup(b *bench, parent int) {
	b.checkDecode(s.in, parent)
	want, err := s.saved.Digest()
	got, err2 := s.plan.Digest()
	b.check(err == nil && err2 == nil && got == want, "reloaded plan digest %.16s, saved %.16s", got, want)
}

func (s *sweepRun) unit(b *bench, parent int) (*unitOut, error) {
	src := fileSource(s.in)
	defer closeSource(src)
	cells := grid()
	results := make([]frontend.Result, len(cells))
	lat := make([]time.Duration, len(cells))
	pool := runner.New(runner.Options{Workers: poolWorkers})
	rid := b.begin("runner.Group", parent)
	g := pool.NewGroup(context.Background())
	futs := make([]*runner.Future, len(cells))
	for i, c := range cells {
		var plan *core.Plan
		if c.planned {
			plan = s.plan
		}
		sig := fmt.Sprintf("bench-sweep|%s|%s|planned=%t", c.policy, c.prefetcher, c.planned)
		futs[i] = g.Submit(runner.NewJob(sig, sig, 1, func(context.Context) (*frontend.Result, error) {
			cfg := core.TuneConfig{Params: frontend.DefaultParams(), Policy: c.policy, Prefetcher: c.prefetcher}
			t0 := time.Now()
			id := b.begin("frontend.Run", rid)
			res, err := core.RunPlan(s.in.prog, src, cfg, plan)
			b.end(id)
			lat[i] = time.Since(t0)
			return &res, err
		}))
	}
	werr := g.Wait()
	b.end(rid)

	h := sha256.New()
	var speedup, mpki float64
	blocks := 0
	for i, f := range futs {
		v, err := f.Get()
		b.op(err)
		if err != nil {
			continue
		}
		results[i] = *(v.(*frontend.Result))
		raw, _ := json.Marshal(results[i]) // a Result always marshals
		h.Write(raw)
		blocks += int(results[i].Blocks)
	}
	if werr != nil {
		return nil, werr
	}
	for i := 0; i < len(cells); i += 2 { // cells pair up: uninjected, planned
		speedup += frontend.Speedup(results[i], results[i+1])
		mpki += results[i+1].MPKI()
	}
	pairs := float64(len(cells) / 2)
	s.last = results
	return &unitOut{
		blocks:    blocks,
		latencies: lat,
		decoded:   decodedBlocks(src),
		digest:    hex.EncodeToString(h.Sum(nil)),
		speedup:   speedup / pairs,
		mpki:      mpki / pairs,
		pool:      statsOf(pool),
	}, nil
}

func (s *sweepRun) checkUnits(b *bench, parent int) {
	b.checkIdealMisses(s.in.prog, blockseq.SliceSource(s.in.blocks), s.an, parent)
}

func (s *sweepRun) probe(b *bench, parent int, tree *spanTree, traced []*unitOut) (*layerOut, error) {
	lo := &layerOut{profileBlocks: len(s.in.blocks)}
	lo.fromAnalysisSpans(tree, tree.roots("bench.setup"), nil)
	lo.analyzeAllocMB, lo.windows = float64(s.alloc)/(1<<20), s.an.Windows
	// The grid's own runs give the simulator figures: per-cell times from
	// the traced units, work counts from the (identical) results.
	for _, u := range traced {
		for i, c := range grid() {
			if c.prefetcher == "none" {
				lo.runNone = append(lo.runNone, u.latencies[i].Seconds())
			} else {
				lo.runFdip = append(lo.runFdip, u.latencies[i].Seconds())
			}
		}
		lo.simBlocks += uint64(u.blocks)
	}
	for _, r := range s.last {
		lo.addCounts(r)
	}
	if err := b.probeStages(lo, s.in.prog, [][]program.BlockID{s.in.blocks}, parent); err != nil {
		return nil, err
	}
	return lo, b.probeCommon(lo, s.in, s.an, s.plan, 0, parent)
}
