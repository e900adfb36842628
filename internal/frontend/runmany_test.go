package frontend

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/blockseq/blockseqtest"
	"ripple/internal/bpred"
	"ripple/internal/prefetch"
	"ripple/internal/program"
	"ripple/internal/replacement"
)

// lockstepImage is one way a configuration of a RunMany call executes a
// plan: the base program, an overlay plan on it, a rewritten image whose
// plan moved code, or a shift-placed image.
type lockstepImage struct {
	name       string
	image      *program.Program // nil: RunMany's program
	injections map[program.BlockID][]uint64
	ref        *program.Program // what an independent Run executes
}

func lockstepImages(t *testing.T, f oracleFixture) []lockstepImage {
	t.Helper()
	// A plan moves code only on a program whose planned blocks already
	// carry shift-placed injections.
	shifted := f.prog.WithInjections(f.plan)
	moving := map[program.BlockID][]uint64{}
	for bid, victims := range f.plan {
		if len(moving) < len(f.plan)/2 {
			moving[bid] = append([]uint64{victims[0] + 1}, victims...)
		}
	}
	if !shifted.PlanMovesCode(moving) {
		t.Fatal("moving plan does not move code")
	}
	if f.prog.PlanMovesCode(f.plan) {
		t.Fatal("overlay plan moves code")
	}
	moved := shifted.WithInjectionsPreservingLayout(moving)
	shift := f.prog.WithInjections(f.plan)
	return []lockstepImage{
		{name: "base", ref: f.prog},
		{name: "overlay", injections: f.plan, ref: f.prog.WithInjectionsPreservingLayout(f.plan)},
		{name: "moves-code", image: moved, ref: moved},
		{name: "shift", image: shift, ref: shift},
	}
}

// TestRunManyMatchesRun: every configuration of a RunMany call gets the
// Result, field by field, of an independent Run of that configuration —
// over all ten policies, none/nlp/fdip/tifs, both hint modes, accuracy
// scoring on and off, warmup 0 and > 0, cold and prewarmed hierarchies,
// with overlay plans, a code-moving plan and a shift plan mixed in one
// call. Each call decodes the source once, plus one oracle pre-pass per
// image that scores accuracy.
func TestRunManyMatchesRun(t *testing.T) {
	f := newOracleFixture(t, 4000)
	images := lockstepImages(t, f)
	p := DefaultParams()
	// The passes one accuracy-scoring oracle pre-pass makes.
	probe := blockseqtest.Count(blockseq.SliceSource(f.tr))
	if _, err := Run(p, f.prog, probe, Options{MeasureAccuracy: true}); err != nil {
		t.Fatal(err)
	}
	oraclePasses := probe.Opens() - 1
	compared := 0
	for _, pf := range prefetch.Names() {
		for _, warm := range []int{0, 1500} {
			for _, cold := range []bool{false, true} {
				type cfg struct {
					name string
					img  lockstepImage
					opts func(prog *program.Program) Options
				}
				var cfgs []cfg
				for _, pol := range replacement.Names() {
					for _, hints := range []HintMode{HintInvalidate, HintDemote} {
						for _, acc := range []bool{false, true} {
							// Rotate so every image gets configurations with
							// and without accuracy scoring.
							k := len(cfgs)
							img := images[(k+k/len(images))%len(images)]
							cfgs = append(cfgs, cfg{
								name: fmt.Sprintf("%s/%s/%s/hints=%d/acc=%v/warm=%d/cold=%v", img.name, pol, pf, hints, acc, warm, cold),
								img:  img,
								opts: func(prog *program.Program) Options {
									pp, err := replacement.New(pol)
									if err != nil {
										t.Fatal(err)
									}
									ff, err := prefetch.New(pf, prog)
									if err != nil {
										t.Fatal(err)
									}
									return Options{Policy: pp, Prefetcher: ff, Hints: hints, MeasureAccuracy: acc,
										WarmupBlocks: warm, ColdHierarchy: cold}
								},
							})
						}
					}
				}
				many := make([]Options, len(cfgs))
				for i, c := range cfgs {
					prog := f.prog
					if c.img.image != nil {
						prog = c.img.image
					}
					many[i] = c.opts(prog)
					many[i].Image = c.img.image
					many[i].Injections = c.img.injections
				}
				src := blockseqtest.Count(blockseq.SliceSource(f.tr))
				got, err := RunMany(p, f.prog, src, many)
				if err != nil {
					t.Fatal(err)
				}
				// One simulation pass, plus one oracle pre-pass for each
				// of the three images (base and overlay share one).
				if want := 1 + 3*oraclePasses; src.Opens() != want {
					t.Fatalf("%s warm=%d cold=%v: %d passes over the source, want %d", pf, warm, cold, src.Opens(), want)
				}
				for i, c := range cfgs {
					want, err := Run(p, c.img.ref, blockseq.SliceSource(f.tr), c.opts(c.img.ref))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got[i], want) {
						t.Fatalf("%s:\n got  %+v\n want %+v", c.name, got[i], want)
					}
					compared++
				}
			}
		}
	}
	if compared != 4*2*2*10*2*2 {
		t.Fatalf("compared %d configurations", compared)
	}
}

// TestRunManyMatchesRecorded runs every recorded late-prefetch case, as
// an overlay and over the rewritten program, in one RunMany call, so the
// configurations differ in warmup and hierarchy start within the call.
func TestRunManyMatchesRecorded(t *testing.T) {
	raw, err := os.ReadFile("testdata/late_prefetch_results.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []pendingCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	f := newOracleFixture(t, 20000)
	rewritten := f.prog.WithInjectionsPreservingLayout(f.plan)
	var opts []Options
	var want []Result
	for _, c := range cases {
		for _, overlay := range []bool{false, true} {
			prog := rewritten
			o := Options{Hints: c.Hints, WarmupBlocks: c.Warmup, MeasureAccuracy: c.Accuracy, ColdHierarchy: c.Cold}
			if overlay {
				prog, o.Injections = f.prog, f.plan
			} else {
				o.Image = rewritten
			}
			if o.Policy, err = replacement.New(c.Policy); err != nil {
				t.Fatal(err)
			}
			if o.Prefetcher, err = prefetch.New(c.Prefetcher, prog); err != nil {
				t.Fatal(err)
			}
			opts = append(opts, o)
			want = append(want, c.Result)
		}
	}
	got, err := RunMany(DefaultParams(), f.prog, blockseq.SliceSource(f.tr), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s (overlay=%v):\n got  %+v\n want %+v", cases[i/2].Name, i%2 == 1, got[i], want[i])
		}
	}
}

// TestRunManyRejectsForeignImage: an image whose block IDs are not the
// program's is an error.
func TestRunManyRejectsForeignImage(t *testing.T) {
	f := newOracleFixture(t, 100)
	small := &program.Program{Name: "small"}
	_, err := RunMany(DefaultParams(), f.prog, blockseq.SliceSource(f.tr), []Options{{}, {Image: small}})
	if err == nil {
		t.Fatal("RunMany accepted an image with other block IDs")
	}
	if res, err := RunMany(DefaultParams(), f.prog, blockseq.SliceSource(f.tr), nil); err != nil || len(res) != 0 {
		t.Fatalf("no configurations: %v, %v", res, err)
	}
}

// TestBranchMPKIExcludesWarmup: Result.BranchMPKI counts only the
// mispredictions of the measured region. The expected count comes from
// an independent walk of a fresh predictor over the trace, snapshotted
// at the warmup boundary, and divided by the measured instructions. The
// warmups run alone and again together in one RunMany call, where they
// share one FDIP walk that retires each chunk before any configuration
// executes it, so every snapshot is taken after the walk has retired its
// boundary block. Boundaries where that retirement mispredicts are
// included, since only there the two snapshot points differ, and so are
// boundaries on either side of a chunk's first block.
func TestBranchMPKIExcludesWarmup(t *testing.T) {
	f := newOracleFixture(t, 20000)
	pred := bpred.New(bpred.DefaultConfig())
	before := make([]uint64, len(f.tr)+1) // before[i]: mispredictions before block i retires
	for i := 0; i+1 < len(f.tr); i++ {
		before[i] = pred.Mispredicts()
		pred.Retire(f.prog, f.tr[i], f.tr[i+1])
	}
	before[len(f.tr)-1] = pred.Mispredicts()
	total := pred.Mispredicts()
	warmups := []int{0, chunkBlocks - 1, chunkBlocks, chunkBlocks + 1, 5000, 19000, 20000}
	fixed := len(warmups)
	for i := 1000; i < len(f.tr) && len(warmups) < fixed+3; i++ {
		if before[i+1] != before[i] {
			warmups = append(warmups, i)
		}
	}
	if len(warmups) < fixed+3 {
		t.Fatal("no mispredicting warmup boundaries")
	}
	want := func(warm int, instrs uint64) float64 {
		mis := total
		if warm < len(f.tr) {
			mis -= before[warm]
		}
		if mis == 0 {
			t.Fatalf("warmup %d: no mispredictions to count", warm)
		}
		return float64(mis) / float64(instrs) * 1000
	}
	opts := func(warm int) Options {
		return Options{Prefetcher: prefetch.NewFDIP(f.prog, bpred.DefaultConfig(), 32), WarmupBlocks: warm}
	}
	var many []Options
	for _, warm := range warmups {
		res, err := Run(DefaultParams(), f.prog, blockseq.SliceSource(f.tr), opts(warm))
		if err != nil {
			t.Fatal(err)
		}
		if w := want(warm, res.Instrs); res.BranchMPKI != w {
			t.Fatalf("warmup %d: BranchMPKI %v, want %v", warm, res.BranchMPKI, w)
		}
		many = append(many, opts(warm))
	}
	got, err := RunMany(DefaultParams(), f.prog, blockseq.SliceSource(f.tr), many)
	if err != nil {
		t.Fatal(err)
	}
	for i, warm := range warmups {
		if w := want(warm, got[i].Instrs); got[i].BranchMPKI != w {
			t.Fatalf("lockstep warmup %d: BranchMPKI %v, want %v", warm, got[i].BranchMPKI, w)
		}
	}
}

// TestRunManyConcurrent runs lockstep groups that share a program, a
// source and the prewarmed outer snapshot from several goroutines at
// once; under the race detector it proves the shared state is only read.
func TestRunManyConcurrent(t *testing.T) {
	f := newOracleFixture(t, 3000)
	src := blockseq.SliceSource(f.tr)
	opts := func() []Options {
		var o []Options
		for _, pol := range []string{"lru", "srrip", "ghrp"} {
			pp, err := replacement.New(pol)
			if err != nil {
				t.Fatal(err)
			}
			pf, err := prefetch.New("fdip", f.prog)
			if err != nil {
				t.Fatal(err)
			}
			o = append(o, Options{Policy: pp, Prefetcher: pf, MeasureAccuracy: true, Injections: f.plan})
		}
		return o
	}
	want, err := RunMany(DefaultParams(), f.prog, src, opts())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := RunMany(DefaultParams(), f.prog, src, opts())
			if err == nil && !reflect.DeepEqual(got, want) {
				err = fmt.Errorf("concurrent lockstep run diverged")
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestChunkingIsInvisible: how many blocks each configuration executes
// before the next takes its turn changes no result. One RunMany call
// mixes a shared FDIP walk, NLP, TIFS, an overlay plan and warmups on
// both sides of a chunk boundary; chunks of one block (configurations
// interleaved block by block), of sizes that do and do not divide the
// trace, and of the whole trace must all give the same results.
func TestChunkingIsInvisible(t *testing.T) {
	f := newOracleFixture(t, 3000)
	defer func(n int) { chunkBlocks = n }(chunkBlocks)
	configs := func() []Options {
		var opts []Options
		for i, pf := range []string{"fdip", "fdip", "nlp", "tifs", "none", "fdip"} {
			pol, err := replacement.New(replacement.Names()[i])
			if err != nil {
				t.Fatal(err)
			}
			pre, err := prefetch.New(pf, f.prog)
			if err != nil {
				t.Fatal(err)
			}
			o := Options{Policy: pol, Prefetcher: pre, WarmupBlocks: []int{0, 999, 1000, 1001, 1500, 2999}[i], MeasureAccuracy: i%2 == 0}
			if i == 5 {
				o.Injections = f.plan
			}
			opts = append(opts, o)
		}
		return opts
	}
	run := func(chunk int) []Result {
		chunkBlocks = chunk
		res, err := RunMany(DefaultParams(), f.prog, blockseq.SliceSource(f.tr), configs())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(len(f.tr) + 1)
	for _, chunk := range []int{1, 7, 1000, 1500, 2999, 3000} {
		if got := run(chunk); !reflect.DeepEqual(got, want) {
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("chunk %d, configuration %d:\n got  %+v\n want %+v", chunk, i, got[i], want[i])
				}
			}
		}
	}
}
