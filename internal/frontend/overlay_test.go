package frontend

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/prefetch"
	"ripple/internal/program"
	"ripple/internal/replacement"
	"ripple/internal/workload"
)

// overlayPlan plans every 7th traced block with the first line of a block
// run shortly before, and gives every 11th an empty victim list. On an
// app with traced JIT and kernel code the plan names both, and the
// overlay must skip them as the rewrite does.
func overlayPlan(prog *program.Program, tr []program.BlockID) map[program.BlockID][]uint64 {
	plan := map[program.BlockID][]uint64{}
	for i := 8; i < len(tr); i++ {
		switch {
		case i%11 == 0:
			plan[tr[i]] = []uint64{}
		case i%7 == 0:
			plan[tr[i]] = []uint64{prog.Block(tr[i-5]).FirstLine(), prog.Block(tr[i-3]).FirstLine()}
		}
	}
	return plan
}

// TestInjectionOverlayMatchesRewrite: running a plan as an overlay on a
// program gives the Result, field by field, of running the program
// WithInjectionsPreservingLayout(plan) — for every policy, prefetcher,
// hint mode, accuracy scoring and warmup, over a plan naming JIT blocks,
// kernel blocks and empty victim lists, on both an uninjected image and
// an already padding-injected one.
func TestInjectionOverlayMatchesRewrite(t *testing.T) {
	m, ok := workload.ByName("drupal")
	if !ok {
		t.Fatal("drupal missing from the catalog")
	}
	app, err := workload.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	tr := app.Trace(0, 3000)
	plan := overlayPlan(app.Prog, tr)
	var jit, kernel, empty int
	for bid, victims := range plan {
		b := app.Prog.Block(bid)
		switch {
		case len(victims) == 0:
			empty++
		case b.JIT:
			jit++
		case b.Kernel:
			kernel++
		}
	}
	if jit == 0 || kernel == 0 || empty == 0 {
		t.Fatalf("plan names %d JIT, %d kernel, %d empty entries; want all three", jit, kernel, empty)
	}
	padded := app.Prog.WithInjectionsPreservingLayout(overlayPlan(app.Prog, tr[1000:]))
	images := []struct {
		name string
		prog *program.Program
	}{{"uninjected", app.Prog}, {"padded", padded}}

	src := blockseq.SliceSource(tr)
	runs := 0
	for _, img := range images {
		if img.prog.PlanMovesCode(plan) {
			t.Fatalf("%s: plan moves code", img.name)
		}
		rewritten := img.prog.WithInjectionsPreservingLayout(plan)
		for _, pol := range replacement.Names() {
			for _, pf := range []string{"none", "nlp", "fdip", "tifs"} {
				for _, hints := range []HintMode{HintInvalidate, HintDemote} {
					for _, acc := range []bool{false, true} {
						for _, warm := range []int{0, 1000} {
							name := fmt.Sprintf("%s/%s/%s/hints=%d/acc=%v/warm=%d", img.name, pol, pf, hints, acc, warm)
							opts := func(prog *program.Program) Options {
								p, err := replacement.New(pol)
								if err != nil {
									t.Fatal(err)
								}
								f, err := prefetch.New(pf, prog)
								if err != nil {
									t.Fatal(err)
								}
								return Options{Policy: p, Prefetcher: f, Hints: hints, MeasureAccuracy: acc, WarmupBlocks: warm}
							}
							o := opts(img.prog)
							o.Injections = plan
							got, err := Run(DefaultParams(), img.prog, src, o)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							want, err := Run(DefaultParams(), rewritten, src, opts(rewritten))
							if err != nil {
								t.Fatalf("%s: rewrite: %v", name, err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s:\n got  %+v\n want %+v", name, got, want)
							}
							if want.HintInstrs == 0 {
								t.Fatalf("%s: no hint executed", name)
							}
							runs++
						}
					}
				}
			}
		}
	}
	if runs != 2*10*4*2*2*2 {
		t.Fatalf("compared %d configurations", runs)
	}
}

// TestInjectionOverlayRejectsForeignBlocks: a plan naming a block outside
// the program is an error, not a panic.
func TestInjectionOverlayRejectsForeignBlocks(t *testing.T) {
	prog := loopProgram(t)
	for _, bid := range []program.BlockID{-1, program.BlockID(prog.NumBlocks())} {
		_, err := Run(DefaultParams(), prog, trace(0, 1), Options{
			Injections: map[program.BlockID][]uint64{bid: {1}},
		})
		if err == nil {
			t.Fatalf("plan naming block %d accepted", bid)
		}
	}
}

// pendingCase is one recorded run of the late-prefetch guard.
type pendingCase struct {
	Name       string
	Policy     string
	Prefetcher string
	Hints      HintMode
	Warmup     int
	Accuracy   bool
	Cold       bool
	Result     Result
}

// TestLatePrefetchesMatchRecorded pins full Results of prefetching runs
// with late prefetches to values recorded before in-flight prefetches
// moved from a map keyed by line to per-way slots. The reference-hierarchy
// test cannot catch a slot bug, since both of its sides run the same
// L1I model. Every case has LateMisses > 0; each runs both as an overlay
// and over the rewritten program. The cold-hierarchy cases serve
// prefetches from memory, so a prefetched line can be evicted long before
// its data would have arrived.
func TestLatePrefetchesMatchRecorded(t *testing.T) {
	raw, err := os.ReadFile("testdata/late_prefetch_results.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []pendingCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) < 48 {
		t.Fatalf("%d recorded cases", len(cases))
	}
	f := newOracleFixture(t, 20000)
	rewritten := f.prog.WithInjectionsPreservingLayout(f.plan)
	src := blockseq.SliceSource(f.tr)
	for _, c := range cases {
		if c.Result.LateMisses == 0 {
			t.Fatalf("%s: recorded without late prefetches", c.Name)
		}
		for _, overlay := range []bool{false, true} {
			prog := rewritten
			var inj map[program.BlockID][]uint64
			if overlay {
				prog, inj = f.prog, f.plan
			}
			pol, err := replacement.New(c.Policy)
			if err != nil {
				t.Fatal(err)
			}
			pf, err := prefetch.New(c.Prefetcher, prog)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(DefaultParams(), prog, src, Options{
				Policy: pol, Prefetcher: pf, Hints: c.Hints, WarmupBlocks: c.Warmup,
				MeasureAccuracy: c.Accuracy, ColdHierarchy: c.Cold, Injections: inj,
			})
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			if !reflect.DeepEqual(got, c.Result) {
				t.Fatalf("%s (overlay=%v):\n got  %+v\n want %+v", c.Name, overlay, got, c.Result)
			}
		}
	}
}
