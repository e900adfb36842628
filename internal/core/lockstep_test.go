package core

import (
	"fmt"
	"reflect"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/blockseq/blockseqtest"
	"ripple/internal/frontend"
	"ripple/internal/program"
	"ripple/internal/replacement"
	"ripple/internal/runner"
)

// perThresholdTune is the sweep as it ran before duplicate plans were
// skipped: the baseline and every threshold's plan simulated on its own
// with RunPlan.
func perThresholdTune(t *testing.T, a *Analysis, src blockseq.Source, cfg TuneConfig) *TuneResult {
	t.Helper()
	ths := cfg.Thresholds
	if ths == nil {
		ths = DefaultThresholds()
	}
	base, err := RunPlan(a.Prog, src, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]*Plan, len(ths))
	results := make([]frontend.Result, len(ths))
	for i, th := range ths {
		plans[i] = a.PlanAt(th)
		if results[i], err = RunPlan(a.Prog, src, cfg, plans[i]); err != nil {
			t.Fatal(err)
		}
	}
	return assembleTune(a, ths, plans, base, results)
}

// TestTuneLockstepMatchesPerThresholdRuns: a sweep that simulates each
// distinct plan once, in lockstep groups, returns exactly the TuneResult
// of simulating every threshold on its own — serially and on pools of
// several sizes, with warmup, accuracy scoring, the shift layout and a
// miss-trained prefetcher.
func TestTuneLockstepMatchesPerThresholdRuns(t *testing.T) {
	prog, tr, _ := tunedApp(t, "finagle-http")
	src := blockseq.SliceSource(tr)
	a, err := Analyze(prog, src, DefaultAnalysisConfig())
	if err != nil {
		t.Fatal(err)
	}
	params := frontend.DefaultParams()
	for _, cfg := range []TuneConfig{
		{Params: params, Policy: "lru", Prefetcher: "fdip", WarmupBlocks: 1000},
		{Params: params, Policy: "srrip", Prefetcher: "nlp", MeasureAccuracy: true, Hints: frontend.HintDemote},
		{Params: params, Policy: "lru", Prefetcher: "fdip", ShiftLayout: true},
		{Params: params, Policy: "ghrp", Prefetcher: "tifs", WarmupBlocks: 500},
		{Params: params, Policy: "lru", Prefetcher: "none", Thresholds: []float64{0.9, 0.05, 0.5, 0.05, 2}},
	} {
		name := fmt.Sprintf("%s/%s/acc=%v/shift=%v/warm=%d", cfg.Policy, cfg.Prefetcher, cfg.MeasureAccuracy, cfg.ShiftLayout, cfg.WarmupBlocks)
		want := perThresholdTune(t, a, src, cfg)
		for _, workers := range []int{0, 1, 2, 5} {
			opts := ParallelOptions{}
			if workers > 0 {
				opts.Pool = runner.New(runner.Options{Workers: workers})
			}
			got, err := TuneParallel(a, src, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: lockstep sweep diverged:\n got  %+v\n want %+v", name, workers, got, want)
			}
		}
	}
}

// TestEmptyPlanIsBaseline: an empty plan simulates exactly the
// uninjected program under either placement, so a sweep may serve every
// empty plan with the baseline run. For the shift layout this holds
// because plan.Apply of an empty plan re-lays the program out to the
// same addresses.
func TestEmptyPlanIsBaseline(t *testing.T) {
	prog, tr, _ := tunedApp(t, "finagle-http")
	src := blockseq.SliceSource(tr)
	empty := &Plan{Program: prog.Name, Threshold: 2, Injections: map[program.BlockID][]uint64{}}
	for _, pol := range replacement.Names() {
		for _, pf := range []string{"none", "nlp", "fdip", "tifs"} {
			for _, shift := range []bool{false, true} {
				cfg := TuneConfig{Params: frontend.DefaultParams(), Policy: pol, Prefetcher: pf,
					ShiftLayout: shift, MeasureAccuracy: pol == "lru", WarmupBlocks: 700}
				base, err := RunPlan(prog, src, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := RunPlan(prog, src, cfg, empty)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, base) {
					t.Fatalf("%s/%s/shift=%v: empty plan differs from baseline:\n got  %+v\n want %+v", pol, pf, shift, got, base)
				}
			}
		}
	}
}

// TestTuneSweepWorkCount is the deterministic work gate of a threshold
// sweep: it opens the source at most once per lockstep group, plus once
// for the warmup split, and simulates each distinct non-empty plan once
// plus the baseline.
func TestTuneSweepWorkCount(t *testing.T) {
	prog, tr, _ := tunedApp(t, "finagle-http")
	a, err := Analyze(prog, blockseq.SliceSource(tr), DefaultAnalysisConfig())
	if err != nil {
		t.Fatal(err)
	}
	distinct := sweepRunCount(a, DefaultThresholds())
	if distinct >= len(DefaultThresholds())+1 {
		t.Fatalf("no duplicate plans in the sweep (%d runs); the gate would not show deduplication", distinct)
	}
	for _, workers := range []int{0, 1, 2, 3, 8} {
		for _, warmup := range []int{0, 1000} {
			cfg := TuneConfig{Params: frontend.DefaultParams(), Policy: "lru", Prefetcher: "fdip", WarmupBlocks: warmup}
			counted := blockseqtest.Count(blockseq.SliceSource(tr))
			opts := ParallelOptions{SourceID: "work-count"}
			groups := 1
			if workers > 0 {
				opts.Pool = runner.New(runner.Options{Workers: workers})
				groups = min(workers, distinct)
			}
			if _, err := TuneParallel(a, counted, cfg, opts); err != nil {
				t.Fatal(err)
			}
			split := 0
			if warmup > 0 {
				split = 1
			}
			if got, limit := counted.Opens(), uint64(groups+split); got > limit {
				t.Fatalf("workers=%d warmup=%d: %d decode passes, want <= %d (%d lockstep groups + %d)",
					workers, warmup, got, limit, groups, split)
			}
			if opts.Pool != nil {
				if got := opts.Pool.Stats().Computed; got != int64(distinct) {
					t.Fatalf("workers=%d warmup=%d: simulated %d configurations, want %d (distinct non-empty plans + 1)",
						workers, warmup, got, distinct)
				}
			}
		}
	}
}
