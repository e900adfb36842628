package core

import (
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/frontend"
	"ripple/internal/prefetch"
	"ripple/internal/program"
	"ripple/internal/replacement"
	"ripple/internal/workload"
)

// runRewritten is RunPlan over the explicitly rewritten program: the
// padding-placed image, with the prefetcher built from it.
func runRewritten(t *testing.T, prog *program.Program, src blockseq.Source, cfg TuneConfig, plan *Plan) frontend.Result {
	t.Helper()
	target := plan.ApplyPreservingLayout(prog)
	pol, err := replacement.New(cfg.Policy)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := prefetch.New(cfg.Prefetcher, target)
	if err != nil {
		t.Fatal(err)
	}
	res, err := frontend.Run(cfg.Params, target, src, frontend.Options{
		Policy: pol, Prefetcher: pf, Hints: cfg.Hints,
		MeasureAccuracy: cfg.MeasureAccuracy, WarmupBlocks: cfg.WarmupBlocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// tunedApp analyzes 6,000 blocks of a catalog app and returns its
// program, trace and the plan at threshold 0.25.
func tunedApp(t *testing.T, name string) (*program.Program, []program.BlockID, *Plan) {
	t.Helper()
	m, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("%s missing from the catalog", name)
	}
	app, err := workload.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	tr := app.Trace(0, 6000)
	a, err := Analyze(app.Prog, blockseq.SliceSource(tr), DefaultAnalysisConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan := a.PlanAt(0.25)
	if plan.StaticInstructions() == 0 {
		t.Fatal("empty plan")
	}
	return app.Prog, tr, plan
}

// TestRunPlanOverlayMatchesRewrite: RunPlan's overlay path (prefetcher
// built from the uninjected program) equals simulating the rewritten
// image, and so does its fallback for a plan that moves code: a plan
// re-placing a block that carries shift-placed injections.
func TestRunPlanOverlayMatchesRewrite(t *testing.T) {
	prog, tr, plan := tunedApp(t, "finagle-http")
	src := blockseq.SliceSource(tr)
	shifted := plan.Apply(prog)
	var moving *Plan
	for bid, victims := range plan.Injections {
		if len(shifted.Block(bid).Invalidations) > 0 {
			moving = &Plan{Program: plan.Program, Injections: map[program.BlockID][]uint64{bid: victims[:1]}}
			break
		}
	}
	if moving == nil || !shifted.PlanMovesCode(moving.Injections) {
		t.Fatal("no plan re-placing a shift-injected block")
	}
	if prog.PlanMovesCode(plan.Injections) {
		t.Fatal("plan over the uninjected program moves code")
	}
	for _, pf := range []string{"none", "nlp", "fdip", "tifs"} {
		for _, hints := range []frontend.HintMode{frontend.HintInvalidate, frontend.HintDemote} {
			cfg := TuneConfig{Params: frontend.DefaultParams(), Policy: "lru", Prefetcher: pf, Hints: hints, WarmupBlocks: 1000}
			for _, c := range []struct {
				name string
				prog *program.Program
				plan *Plan
			}{{"overlay", prog, plan}, {"moves-code", shifted, moving}} {
				got, err := RunPlan(c.prog, src, cfg, c.plan)
				if err != nil {
					t.Fatal(err)
				}
				if want := runRewritten(t, c.prog, src, cfg, c.plan); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s/hints=%d:\n got  %+v\n want %+v", c.name, pf, hints, got, want)
				}
			}
		}
	}
}

// TestRunPlanRejectsForeignBlocks: a plan naming a block the program does
// not have (a crafted or mismatched plan file) is an error from Check and
// from RunPlan under every placement, never an index panic.
func TestRunPlanRejectsForeignBlocks(t *testing.T) {
	prog := lineBlocks(t, 3)
	tr := blockseq.Of(0, 1, 2, 0, 1, 2)
	for _, bid := range []program.BlockID{-1, 3, 1 << 20} {
		plan := &Plan{Program: "crafted", Injections: map[program.BlockID][]uint64{0: {1}, bid: {2}}}
		if err := plan.Check(prog); err == nil || !strings.Contains(err.Error(), "names block") {
			t.Fatalf("Check accepted block %d: %v", bid, err)
		}
		for _, shift := range []bool{false, true} {
			cfg := TuneConfig{Params: frontend.DefaultParams(), Policy: "lru", Prefetcher: "fdip", ShiftLayout: shift}
			if _, err := RunPlan(prog, tr, cfg, plan); err == nil {
				t.Fatalf("RunPlan accepted block %d (shift=%v)", bid, shift)
			}
		}
	}
	if err := (&Plan{Injections: map[program.BlockID][]uint64{2: {1}}}).Check(prog); err != nil {
		t.Fatalf("Check rejected an in-range plan: %v", err)
	}
}

// TestTuneSignatureStable pins the shared part of the tuning jobs'
// signatures for a fixed catalog program and configuration to the string
// recorded before the program fingerprint was memoized: persistent
// result stores are keyed by it.
//
// encoding/gob numbers wire types per process in first-use order, so a
// fingerprint taken after some other gob encoding (a plan digest, say)
// hashes different bytes. The recorded string is a fresh process's, as in
// a CLI, where the fingerprint is the first encoding; the test therefore
// checks it in a child process of its own.
func TestTuneSignatureStable(t *testing.T) {
	if os.Getenv("RIPPLE_TUNE_SIGNATURE_CHILD") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestTuneSignatureStable$", "-test.count=1")
		cmd.Env = append(os.Environ(), "RIPPLE_TUNE_SIGNATURE_CHILD=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child: %v\n%s", err, out)
		}
		return
	}
	m, ok := workload.ByName("finagle-http")
	if !ok {
		t.Fatal("finagle-http missing from the catalog")
	}
	app, err := workload.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TuneConfig{Params: frontend.DefaultParams(), Policy: "lru", Prefetcher: "fdip", Hints: frontend.HintDemote, WarmupBlocks: 1000}
	const want = "rtune1|prog=19726166d5aeb5f0ee552dbc97509d4876c22f75b64dd61c2689a937d7bcc665" +
		"|src=wl1|finagle-http|0|4096" +
		"|params={L1I:{SizeBytes:32768 Ways:8 LineBytes:64} L2:{SizeBytes:1048576 Ways:16 LineBytes:64} " +
		"L3:{SizeBytes:10485760 Ways:20 LineBytes:64} L1ILat:3 L2Lat:12 L3Lat:36 MemLat:260 BaseCPI:0.55 HintCPI:0.12 FreqGHz:2.5}" +
		"|pol=lru|pf=fdip|hints=1|warmup=1000|shift=false|acc=false"
	for i := 0; i < 2; i++ { // the second call reads the memo
		got, err := tuneSignature(app.Prog, "wl1|finagle-http|0|4096", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("signature\n got  %s\n want %s", got, want)
		}
	}
}
