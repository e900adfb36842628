package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync/atomic"

	"ripple/internal/blockseq"
	"ripple/internal/cache"
	"ripple/internal/frontend"
	"ripple/internal/prefetch"
	"ripple/internal/program"
	"ripple/internal/replacement"
	"ripple/internal/runner"
)

// TuneConfig describes the configuration a plan is tuned for.
type TuneConfig struct {
	Params frontend.Params
	// Policy names the underlying hardware replacement policy ("lru",
	// "random", ...).
	Policy string
	// Prefetcher names the prefetch configuration ("none", "nlp", "fdip").
	Prefetcher string
	// Hints selects invalidate vs. demote execution.
	Hints frontend.HintMode
	// Thresholds to sweep; nil uses DefaultThresholds.
	Thresholds []float64
	// MeasureAccuracy additionally scores coverage-vs-accuracy per
	// threshold (needed for the Fig. 6 curve; slower).
	MeasureAccuracy bool
	// WarmupBlocks excludes the first N trace blocks from every
	// measurement (steady-state methodology).
	WarmupBlocks int
	// ShiftLayout evaluates plans with the naive full-relayout injection
	// instead of padding/NOP placement (see RunPlan).
	ShiftLayout bool
}

// DefaultThresholds is the sweep used when TuneConfig.Thresholds is nil;
// the paper finds per-app optima between 45% and 65%, so the sweep is
// denser there.
func DefaultThresholds() []float64 {
	return []float64{0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95}
}

// ThresholdPoint is one point of the coverage/accuracy/performance
// trade-off curve (Fig. 6).
type ThresholdPoint struct {
	Threshold  float64
	Coverage   float64
	Accuracy   float64
	MPKI       float64
	SpeedupPct float64 // over the uninjected run with the same policy+prefetcher
	Static     int     // injected static instructions
}

// TuneResult is the outcome of a threshold sweep.
type TuneResult struct {
	Baseline frontend.Result
	Curve    []ThresholdPoint
	// Best indexes the winning point in Curve: the highest speedup, with
	// equal speedups resolving to the lowest threshold (see assemble).
	Best     int
	BestPlan *Plan
}

// BestPoint returns the winning curve point.
func (t *TuneResult) BestPoint() ThresholdPoint { return t.Curve[t.Best] }

func (c *TuneConfig) newPolicy() (cache.Policy, error) {
	if c.Policy == "" {
		return replacement.NewLRU(), nil
	}
	return replacement.New(c.Policy)
}

func (c *TuneConfig) newPrefetcher(prog *program.Program) (prefetch.Prefetcher, error) {
	if c.Prefetcher == "" {
		return prefetch.None{}, nil
	}
	return prefetch.New(c.Prefetcher, prog)
}

// Tune sweeps the invalidation threshold: each candidate plan is applied
// to the program and simulated on the training trace under the configured
// policy and prefetcher; the plan with the highest speedup over the
// uninjected baseline wins. This is the per-application threshold
// selection of Sec. III-C (the optimum lands in the paper's 45-65% band).
//
// Tune runs the sweep serially; TuneParallel fans the per-threshold
// simulations out across a job-runner pool with byte-identical output.
func Tune(a *Analysis, src blockseq.Source, cfg TuneConfig) (*TuneResult, error) {
	return TuneParallel(a, src, cfg, ParallelOptions{})
}

// ParallelOptions carries the execution substrate for a parallel
// threshold sweep.
type ParallelOptions struct {
	// Pool schedules the baseline and per-threshold simulations as
	// independent runner jobs. nil runs the sweep serially (Tune).
	// TuneParallel may be called from inside a running job on the same
	// pool: sub-jobs share the pool's worker budget via a runner.Group
	// rather than nesting a second worker set.
	Pool *runner.Pool
	// Ctx cancels the sweep; nil means context.Background().
	Ctx context.Context
	// SourceID is a stable content identity for src (e.g. "workload
	// generator version + app + input + length", or a trace file's
	// content hash). It completes the job signatures, so results land in
	// the pool's persistent store and warm reruns — including
	// experiment.Suite runs over the same source and configuration —
	// skip simulation entirely. Leave it empty when the source has no
	// stable identity: the sweep still parallelizes, but its jobs are
	// keyed by a process-unique nonce and bypass the store.
	SourceID string
}

// anonSource numbers Tune calls whose source has no stable identity, so
// their in-process job signatures can never collide across calls.
var anonSource atomic.Int64

// TuneParallel is Tune with every simulation — the uninjected baseline
// and one run per distinct candidate plan — submitted as content-signed
// work to opts.Pool. Each run is keyed by the full run signature
// (program fingerprint, plan digest + threshold, policy, prefetcher,
// machine params, warmup, hint mode, and the source identity), so equal
// sweeps coalesce in-process and, with a persistent store, warm reruns
// perform zero simulations.
//
// A sweep pays once for the work its runs share. Thresholds whose plans
// inject the same victims into the same blocks simulate once, under the
// signature of the lowest such threshold, and an empty plan is the
// baseline. The distinct runs are split into at most one lockstep group
// per pool worker, dealt round-robin (runner.Split); each group is one
// frontend.RunMany over one decode of the source.
//
// Output is byte-identical to the serial sweep for any worker count:
// results are folded in sweep order, and Best resolves explicitly
// (highest speedup, ties to the lowest threshold) rather than by
// completion order.
func TuneParallel(a *Analysis, src blockseq.Source, cfg TuneConfig, opts ParallelOptions) (*TuneResult, error) {
	thresholds := cfg.Thresholds
	if thresholds == nil {
		thresholds = DefaultThresholds()
	}
	if len(thresholds) == 0 {
		return nil, fmt.Errorf("core: no thresholds to tune over")
	}
	plans := make([]*Plan, len(thresholds))
	for i, th := range thresholds {
		plans[i] = a.PlanAt(th)
	}
	runs, runOf := distinctRuns(thresholds, plans)

	// Pay the warmup prefix once: a checkpoint-capable source splits into
	// a buffered prefix plus a resumable tail, so every lockstep group
	// re-generates only the tail. The split changes the source object
	// captured in the run closures, never the block sequence or the
	// content identity, so job signatures — and warm stores keyed by
	// them — are untouched.
	runSrc := warmupSource(src, cfg.WarmupBlocks)

	var done []frontend.Result
	var err error
	if opts.Pool == nil {
		done, err = runLockstep(a.Prog, runSrc, cfg, runs)
	} else {
		done, err = runSweepJobs(a, runSrc, cfg, opts, runs)
	}
	if err != nil {
		return nil, err
	}
	results := make([]frontend.Result, len(thresholds))
	for i, r := range runOf {
		results[i] = done[r]
	}
	return assembleTune(a, thresholds, plans, done[0], results), nil
}

// sweepRun is one distinct simulation of a sweep: the baseline (nil
// plan), or a plan together with the lowest threshold that yields it.
type sweepRun struct {
	plan      *Plan
	threshold float64
}

// distinctRuns lists a sweep's distinct simulations, the baseline first,
// and maps each threshold to the run that yields its result. Plans with
// equal Injections simulate identically, whatever else of the plan
// differs, since RunPlan reads only the injections; an empty plan runs
// exactly the uninjected program, under either placement
// (TestEmptyPlanIsBaseline). A group of equal plans runs as its lowest
// threshold's plan, so its signature is the one that threshold had when
// every threshold ran on its own.
func distinctRuns(thresholds []float64, plans []*Plan) ([]sweepRun, []int) {
	runs := []sweepRun{{}}
	runOf := make([]int, len(plans))
	for i, plan := range plans {
		if len(plan.Injections) == 0 {
			continue // runOf[i] = 0: the baseline
		}
		runOf[i] = -1
		for r := 1; r < len(runs); r++ {
			if maps.EqualFunc(runs[r].plan.Injections, plan.Injections, slices.Equal[[]uint64]) {
				runOf[i] = r
				if thresholds[i] < runs[r].threshold {
					runs[r] = sweepRun{plan: plan, threshold: thresholds[i]}
				}
				break
			}
		}
		if runOf[i] < 0 {
			runOf[i] = len(runs)
			runs = append(runs, sweepRun{plan: plan, threshold: thresholds[i]})
		}
	}
	return runs, runOf
}

// warmupSource returns a source equivalent to src whose passes pay the
// warmup-prefix cost once: the first warmup blocks are read eagerly into
// a slice, a checkpoint is taken at the split, and every pass replays
// the buffered prefix then resumes the tail from the serialized mark.
// Capability probing keeps the seed behavior for everything else: a
// source whose passes don't checkpoint, a source shorter than the
// warmup, or a failing checkpoint all return src unchanged.
func warmupSource(src blockseq.Source, warmup int) blockseq.Source {
	if warmup <= 0 {
		return src
	}
	seq := src.Open()
	cp, ok := seq.(blockseq.Checkpointer)
	if !ok {
		return src
	}
	warm := make([]program.BlockID, 0, warmup)
	for len(warm) < warmup {
		bid, ok := seq.Next()
		if !ok {
			return src // shorter than the warmup (or failing): seed path defines both
		}
		warm = append(warm, bid)
	}
	mark, err := cp.Checkpoint()
	if err != nil {
		return src
	}
	return blockseq.Concat(blockseq.SliceSource(warm), blockseq.Resume(src, mark))
}

// runSweepJobs runs the sweep's distinct simulations as lockstep groups
// on the pool, one multi-result job per group, and returns their results
// in run order.
func runSweepJobs(a *Analysis, src blockseq.Source, cfg TuneConfig, opts ParallelOptions, runs []sweepRun) ([]frontend.Result, error) {
	srcID := opts.SourceID
	skipStore := false
	if srcID == "" {
		// No stable source identity: parallelize with process-unique
		// signatures and keep the store out of it.
		skipStore = true
		srcID = fmt.Sprintf("anon#%d", anonSource.Add(1))
	}
	base, err := tuneSignature(a.Prog, srcID, cfg)
	if err != nil {
		return nil, err
	}
	sigs := make([]string, len(runs))
	for r, run := range runs {
		if run.plan == nil {
			sigs[r] = base + "|plan=none"
			continue
		}
		dg, err := run.plan.digest()
		if err != nil {
			return nil, fmt.Errorf("core: digesting plan: %w", err)
		}
		sigs[r] = fmt.Sprintf("%s|th=%g|plan=%s", base, run.threshold, dg)
	}

	cost := float64(a.TraceBlocks) // per run
	if cfg.MeasureAccuracy {
		cost *= 1.5
	}
	groups := runner.Split(len(runs), opts.Pool.Workers())
	g := opts.Pool.NewGroup(opts.Ctx)
	futs := make([]*runner.Future, len(groups))
	for k, members := range groups {
		gsigs := make([]string, len(members))
		for i, r := range members {
			gsigs[i] = sigs[r]
		}
		j := runner.NewMultiJob(gsigs, fmt.Sprintf("tune %s group %d/%d (%d runs)", a.Prog.Name, k+1, len(groups), len(members)), cost*float64(len(members)),
			func(_ context.Context, want []int) ([]*frontend.Result, error) {
				sub := make([]sweepRun, len(want))
				for i, w := range want {
					sub[i] = runs[members[w]]
				}
				res, err := runLockstep(a.Prog, src, cfg, sub)
				if err != nil {
					return nil, err
				}
				out := make([]*frontend.Result, len(res))
				for i := range res {
					out[i] = &res[i]
				}
				return out, nil
			})
		j.SkipStore = skipStore
		futs[k] = g.SubmitMulti(j)
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	out := make([]frontend.Result, len(runs))
	for k, f := range futs {
		v, err := f.Get()
		if err != nil {
			return nil, err
		}
		for i, res := range v.([]any) {
			out[groups[k][i]] = *(res.(*frontend.Result))
		}
	}
	return out, nil
}

// tuneSignature is the part of a sweep job's signature shared by every
// run of the sweep: the program fingerprint, the source identity and the
// configuration. Result stores are keyed by it, so its bytes must not
// change.
func tuneSignature(prog *program.Program, srcID string, cfg TuneConfig) (string, error) {
	progFP, err := prog.Fingerprint()
	if err != nil {
		return "", fmt.Errorf("core: fingerprinting program: %w", err)
	}
	return fmt.Sprintf("rtune1|prog=%s|src=%s|params=%+v|pol=%s|pf=%s|hints=%d|warmup=%d|shift=%t|acc=%t",
		progFP, srcID, cfg.Params, cfg.Policy, cfg.Prefetcher, cfg.Hints, cfg.WarmupBlocks, cfg.ShiftLayout, cfg.MeasureAccuracy), nil
}

// assembleTune folds the per-threshold results into a TuneResult in
// sweep order, so serial and parallel execution produce byte-identical
// curves regardless of job completion order.
//
// Best selection is explicit about ties: the highest speedup wins, and
// equal speedups resolve to the LOWEST threshold (at equal benefit the
// higher threshold injects no fewer instructions, and the serial sweep
// historically kept the earliest — i.e. lowest — point of an ascending
// sweep; parallel collection has no loop order to lean on, so the rule
// is stated here rather than implied).
func assembleTune(a *Analysis, thresholds []float64, plans []*Plan, baseline frontend.Result, results []frontend.Result) *TuneResult {
	tr := &TuneResult{Baseline: baseline, Best: -1}
	for i, th := range thresholds {
		res := results[i]
		pt := ThresholdPoint{
			Threshold:  th,
			Coverage:   res.Coverage(),
			Accuracy:   res.HintAccuracy(),
			MPKI:       res.MPKI(),
			SpeedupPct: frontend.Speedup(baseline, res),
			Static:     plans[i].StaticInstructions(),
		}
		tr.Curve = append(tr.Curve, pt)
		best := tr.Best
		if best < 0 || pt.SpeedupPct > tr.Curve[best].SpeedupPct ||
			(pt.SpeedupPct == tr.Curve[best].SpeedupPct && pt.Threshold < tr.Curve[best].Threshold) {
			tr.Best = i
		}
	}
	plans = append([]*Plan(nil), plans...)
	if tr.Curve[tr.Best].SpeedupPct < 0 {
		// No threshold improved on this configuration's baseline: ship the
		// uninjected binary (a deployment never regresses; an empty plan
		// is the threshold->infinity limit of the sweep).
		tr.Curve = append(tr.Curve, ThresholdPoint{
			Threshold: 1,
			MPKI:      baseline.MPKI(),
		})
		tr.Best = len(tr.Curve) - 1
		plans = append(plans, &Plan{
			Program:      a.Prog.Name,
			Threshold:    1,
			Injections:   map[program.BlockID][]uint64{},
			WindowsTotal: a.Windows,
		})
	}
	tr.BestPlan = plans[tr.Best]
	return tr
}

// RunPlan simulates the program on the trace under the tuning
// configuration, with plan's injections applied first (nil plan = the
// uninjected baseline). The experiment harness uses it to re-evaluate a
// tuned plan with extra instrumentation or on a different input's trace.
// A plan naming a block outside prog is an error.
//
// Injections are placed layout-neutrally (as ApplyPreservingLayout
// would): moving every downstream byte would remap the hot footprint
// across cache sets and invalidate the very profile the plan came from.
// Such a plan runs as an overlay on prog (frontend.Options.Injections),
// so no per-run program copy is built; only a plan that would shrink a
// block carrying shift-placed injections needs the rewritten image. Set
// cfg.ShiftLayout to evaluate the naive relayout instead (the `layout`
// ablation).
func RunPlan(prog *program.Program, src blockseq.Source, cfg TuneConfig, plan *Plan) (frontend.Result, error) {
	o, err := planOptions(prog, cfg, plan)
	if err != nil {
		return frontend.Result{}, err
	}
	return frontend.Run(cfg.Params, prog, src, o)
}

// runLockstep simulates every run of a sweep in one frontend.RunMany:
// each is RunPlan of its plan, over one decode of src.
func runLockstep(prog *program.Program, src blockseq.Source, cfg TuneConfig, runs []sweepRun) ([]frontend.Result, error) {
	opts := make([]frontend.Options, len(runs))
	for i, r := range runs {
		var err error
		if opts[i], err = planOptions(prog, cfg, r.plan); err != nil {
			return nil, err
		}
	}
	return frontend.RunMany(cfg.Params, prog, src, opts)
}

// planOptions is the simulator configuration RunPlan runs plan with:
// an overlay on prog, or the rewritten image when the plan moves code or
// cfg asks for the shift layout. The prefetcher is built from the image
// the configuration executes; an overlay keeps prog's CFG and extents,
// which is all a prefetcher reads, so it is built from prog.
func planOptions(prog *program.Program, cfg TuneConfig, plan *Plan) (frontend.Options, error) {
	pol, err := cfg.newPolicy()
	if err != nil {
		return frontend.Options{}, err
	}
	o := frontend.Options{
		Policy:          pol,
		Hints:           cfg.Hints,
		MeasureAccuracy: cfg.MeasureAccuracy,
		WarmupBlocks:    cfg.WarmupBlocks,
	}
	target := prog
	if plan != nil {
		if err := plan.Check(prog); err != nil {
			return frontend.Options{}, err
		}
		switch {
		case cfg.ShiftLayout:
			target = plan.Apply(prog)
			o.Image = target
		case prog.PlanMovesCode(plan.Injections):
			target = plan.ApplyPreservingLayout(prog)
			o.Image = target
		default:
			o.Injections = plan.Injections
		}
	}
	if o.Prefetcher, err = cfg.newPrefetcher(target); err != nil {
		return frontend.Options{}, err
	}
	return o, nil
}
