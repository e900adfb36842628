// Command ripplesim drives a recorded trace through the simulated frontend
// under a chosen prefetcher and replacement policy, optionally with a
// Ripple injection plan applied, and reports the paper's metrics: IPC,
// MPKI, coverage, accuracy, and instruction overheads.
//
// Comma-separated -policy/-prefetcher values sweep the cross product: the
// configurations simulate in parallel across -j workers and print one
// summary line each, in argument order. The policies of one prefetcher
// simulate in lockstep groups, up to -j per prefetcher, each over one
// decode of the trace and one prefetcher walk (TIFS, which trains on each
// configuration's misses, keeps one per configuration). With -cachedir,
// sweep results
// persist in a content-addressed store keyed by the input file contents
// and the full configuration, so repeated sweeps only simulate what
// changed.
//
// With -ideal the run additionally reports the ideal (Demand-MIN) miss
// count for the exact access stream this configuration produced, via the
// streaming oracle engine selected by -oracle (exact two-pass Belady, or
// a single-pass sampled-set OPTGen estimate with -oracle sampled).
//
// With -index the trace replays through its .ptidx seek index (written
// by ripplegen -index, rebuilt automatically when missing or stale),
// exposing seek and checkpoint capabilities to any consumer that probes
// for them. Results are byte-identical with or without it, and store
// entries are shared between the two modes. -index conflicts with
// -recover because the index is only defined over a cleanly decoding
// trace.
//
// Usage:
//
//	ripplesim -prog /tmp/fh.prog -pt /tmp/fh.pt -policy lru -prefetcher fdip
//	ripplesim -prog /tmp/fh.prog -pt /tmp/fh.pt -plan /tmp/fh.plan -accuracy
//	ripplesim -prog /tmp/fh.prog -pt /tmp/fh.pt -ideal -oracle sampled
//	ripplesim -prog /tmp/fh.prog -pt /tmp/fh.pt -policy lru,srrip,drrip -prefetcher none,fdip -j 4 -cachedir /tmp/simcache
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ripple/internal/blockseq"
	"ripple/internal/cliflag"
	"ripple/internal/core"
	"ripple/internal/frontend"
	"ripple/internal/opt"
	"ripple/internal/prefetch"
	"ripple/internal/program"
	"ripple/internal/replacement"
	"ripple/internal/rippled"
	"ripple/internal/runner"
	"ripple/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command over explicit arguments and output streams,
// so tests drive it in-process. It returns the process exit code: 2 for
// a bad flag, 1 for a runtime error, 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ripplesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	progPath := fs.String("prog", "", "program image to simulate (required)")
	ptPath := fs.String("pt", "", "PT trace from ripplegen (required)")
	traceProgPath := fs.String("trace-prog", "", "program image the trace was recorded against, when -prog is a rewritten image (default: -prog)")
	planPath := fs.String("plan", "", "optional injection plan from rippleanalyze")
	policy := fs.String("policy", "lru", "replacement policy, or comma-separated list to sweep ("+strings.Join(replacement.Names(), ", ")+")")
	prefetcher := fs.String("prefetcher", "fdip", "prefetcher, or comma-separated list to sweep ("+strings.Join(prefetch.Names(), ", ")+")")
	warmup := fs.Int("warmup", 0, "warmup blocks excluded from measurement")
	blocks := fs.Int("blocks", 0, "simulate only the first N trace blocks (default: whole trace)")
	accuracy := fs.Bool("accuracy", false, "score replacement decisions against the Belady oracle")
	ideal := fs.Bool("ideal", false, "also report the ideal (Demand-MIN) miss count for this configuration's access stream")
	oracleEngine := fs.String("oracle", "exact", "oracle engine for -ideal: exact (two-pass streaming Belady) or sampled (single-pass sampled-set OPTGen estimate)")
	oracleSets := fs.Int("oracle-sets", 0, "sampled-set budget for -oracle sampled (default 64)")
	demote := fs.Bool("demote", false, "execute hints as LRU demotions instead of invalidations")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON instead of the report")
	workers := fs.Int("j", 0, "parallel workers for sweep mode (default GOMAXPROCS)")
	cachedir := fs.String("cachedir", "", "persistent result store for sweep mode (default: none)")
	storeURL := fs.String("store", "", "rippled URL for a shared fleet result store in sweep mode (e.g. http://127.0.0.1:8344); mutually exclusive with -cachedir")
	rec := fs.Bool("recover", false, "resynchronize past damaged trace regions instead of failing")
	index := fs.Bool("index", false, "replay through the .ptidx seek index (built on the fly if absent or stale); conflicts with -recover")
	useMmap := fs.Bool("mmap", true, "memory-map the trace for zero-copy decode (ReadAt fallback when disabled or unsupported by the platform)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	policies := strings.Split(*policy, ",")
	prefetchers := strings.Split(*prefetcher, ",")
	// -blocks 0 legitimately means "simulate nothing", so "unset" must be
	// distinguished from the zero value (the flag.Visit discipline).
	limit := -1
	if cliflag.PassedIn(fs, "blocks") {
		limit = *blocks
	}
	fo := trace.FileOptions{NoMmap: !*useMmap}
	var err error
	if *rec && *index {
		err = fmt.Errorf("-index and -recover are mutually exclusive")
	} else if *cachedir != "" && *storeURL != "" {
		err = fmt.Errorf("-cachedir and -store are mutually exclusive")
	} else if *oracleEngine != "exact" && *oracleEngine != "sampled" {
		err = fmt.Errorf("-oracle must be 'exact' or 'sampled'")
	} else if len(policies) > 1 || len(prefetchers) > 1 {
		if *ideal {
			err = fmt.Errorf("-ideal is only available in single-configuration mode, not sweeps")
		} else {
			err = sweep(stdout, stderr, *progPath, *traceProgPath, *ptPath, *planPath, policies, prefetchers,
				limit, *warmup, *accuracy, *demote, *jsonOut, *workers, *cachedir, *storeURL, *rec, *index, fo)
		}
	} else {
		err = simulate(stdout, *progPath, *traceProgPath, *ptPath, *planPath, *policy, *prefetcher, limit, *warmup,
			*accuracy, *demote, *jsonOut, *rec, *index, *ideal, *oracleEngine, *oracleSets, fo)
	}
	if err != nil {
		fmt.Fprintln(stderr, "ripplesim:", err)
		return 1
	}
	return 0
}

// simulate runs one configuration and prints its report.
func simulate(stdout io.Writer, progPath, traceProgPath, ptPath, planPath, policy, prefetcher string, limit, warmup int,
	accuracy, demote, jsonOut, rec, indexed, ideal bool, oracleEngine string, oracleSets int, fo trace.FileOptions) error {
	if progPath == "" || ptPath == "" {
		return fmt.Errorf("-prog and -pt are required")
	}
	if traceProgPath == "" {
		traceProgPath = progPath
	}
	prog, tr, reporter, err := load(progPath, traceProgPath, ptPath, limit, rec, indexed, fo)
	if err != nil {
		return err
	}
	if planPath != "" {
		f, err := os.Open(planPath)
		if err != nil {
			return err
		}
		plan, err := core.LoadPlan(f)
		f.Close()
		if err == nil {
			err = plan.Check(prog)
		}
		if err != nil {
			return err
		}
		prog = plan.Apply(prog)
		fmt.Fprintf(stdout, "applied plan: %d invalidate instructions in %d cue blocks\n",
			plan.StaticInstructions(), len(plan.Injections))
	}

	pol, err := replacement.New(policy)
	if err != nil {
		return err
	}
	pf, err := prefetch.New(prefetcher, prog)
	if err != nil {
		return err
	}
	hints := frontend.HintInvalidate
	if demote {
		hints = frontend.HintDemote
	}
	res, err := frontend.Run(frontend.DefaultParams(), prog, tr, frontend.Options{
		Policy:          pol,
		Prefetcher:      pf,
		Hints:           hints,
		MeasureAccuracy: accuracy,
		WarmupBlocks:    warmup,
	})
	if err != nil {
		return err
	}

	var idealRep *idealReport
	if ideal {
		if idealRep, err = idealOf(prog, tr, policy, prefetcher, hints, warmup, oracleEngine, oracleSets); err != nil {
			return err
		}
	}

	if jsonOut {
		return emitJSON(stdout, res, coverageOf(reporter), idealRep)
	}
	fmt.Fprintf(stdout, "%s: %s prefetcher, %s replacement\n", res.Program, res.Prefetcher, res.Policy)
	printCoverage(stdout, reporter)
	fmt.Fprintf(stdout, "  instructions: %d (%d injected hints, %.2f%% dynamic overhead)\n",
		res.Instrs, res.HintInstrs, core.DynamicOverheadPct(res))
	fmt.Fprintf(stdout, "  cycles: %d  IPC: %.3f\n", res.Cycles, res.IPC())
	fmt.Fprintf(stdout, "  L1I MPKI: %.2f (misses %d, late prefetches %d, compulsory %d)\n",
		res.MPKI(), res.L1I.DemandMisses, res.LateMisses, res.Compulsory)
	fmt.Fprintf(stdout, "  miss breakdown: L2 %d, L3 %d, memory %d\n", res.L2Hits, res.L3Hits, res.MemFills)
	if res.L1I.HintInvalidations+res.L1I.Demotions > 0 {
		fmt.Fprintf(stdout, "  ripple: coverage %.1f%% (%d hint evictions, %d hints found no victim)\n",
			res.Coverage()*100, res.L1I.HintFreedFills, res.L1I.HintMisses)
	}
	if idealRep != nil {
		fmt.Fprintf(stdout, "  ideal replacement (demand-min, %s): %d misses", idealRep.Engine, idealRep.Misses)
		if idealRep.Engine == "sampled" {
			fmt.Fprintf(stdout, " estimated from %d/%d sets (history %d)", idealRep.SampleSets, idealRep.TotalSets, idealRep.History)
		}
		fmt.Fprintf(stdout, "; this policy took %d\n", res.L1I.DemandMisses)
	}
	if accuracy {
		fmt.Fprintf(stdout, "  accuracy: policy %.1f%%", res.PolicyAccuracy()*100)
		if res.HintEvictions > 0 {
			fmt.Fprintf(stdout, ", ripple %.1f%%, combined %.1f%%", res.HintAccuracy()*100, res.CombinedAccuracy()*100)
		}
		fmt.Fprintln(stdout)
	}
	if res.BranchMPKI > 0 {
		fmt.Fprintf(stdout, "  branch MPKI: %.2f\n", res.BranchMPKI)
	}
	return nil
}

// sweep simulates every policy × prefetcher combination in parallel and
// prints one summary line per configuration, in argument order. Results
// are deterministic regardless of worker count; with a cache directory
// they are keyed by the SHA-256 of the input files plus the full
// configuration, so editing the trace or plan invalidates exactly the
// affected entries.
func sweep(stdout, stderr io.Writer, progPath, traceProgPath, ptPath, planPath string, policies, prefetchers []string,
	limit, warmup int, accuracy, demote, jsonOut bool, workers int, cachedir, storeURL string, rec, indexed bool, fo trace.FileOptions) error {
	if progPath == "" || ptPath == "" {
		return fmt.Errorf("-prog and -pt are required")
	}
	if traceProgPath == "" {
		traceProgPath = progPath
	}
	prog, tr, reporter, err := load(progPath, traceProgPath, ptPath, limit, rec, indexed, fo)
	if err != nil {
		return err
	}
	planHash := "none"
	if planPath != "" {
		f, err := os.Open(planPath)
		if err != nil {
			return err
		}
		plan, err := core.LoadPlan(f)
		f.Close()
		if err == nil {
			err = plan.Check(prog)
		}
		if err != nil {
			return err
		}
		prog = plan.Apply(prog)
		if h, err := fileHash(planPath); err == nil {
			planHash = h
		}
	}
	progHash, err := fileHash(progPath)
	if err != nil {
		return err
	}
	ptHash, err := fileHash(ptPath)
	if err != nil {
		return err
	}
	params := frontend.DefaultParams()
	base := fmt.Sprintf("rsim1|prog=%s|pt=%s|plan=%s|params=%+v|warmup=%d|acc=%t|demote=%t",
		progHash, ptHash, planHash, params, warmup, accuracy, demote)
	if limit >= 0 {
		// Appended only when -blocks was passed, so pre-existing store
		// entries for whole-trace sweeps stay addressable.
		base += fmt.Sprintf("|blocks=%d", limit)
	}
	if rec {
		// Likewise appended only with -recover: a clean trace decodes
		// identically in both modes, but a damaged one yields a different
		// (shorter) block sequence under the same file hash.
		base += "|recover=1"
	}

	var store runner.StoreBackend
	if storeURL != "" {
		cl, cerr := rippled.NewClient(storeURL, rippled.ClientOptions{Log: stderr})
		if cerr != nil {
			return cerr
		}
		store = cl
	} else if cachedir != "" {
		st, serr := runner.OpenStore(cachedir)
		if serr != nil {
			return serr
		}
		store = st
	}
	pool := runner.New(runner.Options{Workers: workers, Store: store, Log: stderr})
	hints := frontend.HintInvalidate
	if demote {
		hints = frontend.HintDemote
	}
	sig := func(pol, pf string) string { return fmt.Sprintf("%s|pol=%s|pf=%s", base, pol, pf) }
	blocks := 1.0
	if n, ok := blockseq.LenHint(tr); ok {
		blocks = float64(n)
	}
	// A lockstep job runs some of one prefetcher's policies over one
	// decode and, except for TIFS (which trains on each configuration's
	// misses), one prefetcher walk. Each prefetcher's policies are dealt
	// into up to Workers jobs: prefetchers differ in cost (an FDIP group
	// takes about three times a group without prefetching), so one job
	// per prefetcher would leave workers idle behind the costliest.
	type cell struct{ pol, pf int } // indices into policies and prefetchers
	var groups [][]cell
	for j := range prefetchers {
		for _, members := range runner.Split(len(policies), pool.Workers()) {
			grp := make([]cell, len(members))
			for k, i := range members {
				grp[k] = cell{i, j}
			}
			groups = append(groups, grp)
		}
	}
	g := pool.NewGroup(context.Background())
	futs := make([]*runner.Future, len(groups))
	for n, grp := range groups {
		sigs := make([]string, len(grp))
		label := make([]string, len(grp))
		for k, c := range grp {
			sigs[k] = sig(policies[c.pol], prefetchers[c.pf])
			label[k] = policies[c.pol]
		}
		pf := prefetchers[grp[0].pf]
		futs[n] = g.SubmitMulti(runner.NewMultiJob(sigs, strings.Join(label, ",")+"/"+pf, blocks*float64(len(grp)),
			func(_ context.Context, want []int) ([]*frontend.Result, error) {
				opts := make([]frontend.Options, len(want))
				for k, w := range want {
					p, err := replacement.New(policies[grp[w].pol])
					if err != nil {
						return nil, err
					}
					pre, err := prefetch.New(pf, prog)
					if err != nil {
						return nil, err
					}
					opts[k] = frontend.Options{
						Policy:          p,
						Prefetcher:      pre,
						Hints:           hints,
						MeasureAccuracy: accuracy,
						WarmupBlocks:    warmup,
					}
				}
				rs, err := frontend.RunMany(params, prog, tr, opts)
				if err != nil {
					return nil, err
				}
				out := make([]*frontend.Result, len(rs))
				for k := range rs {
					out[k] = &rs[k]
				}
				return out, nil
			}))
	}
	if err := g.Wait(); err != nil {
		return err
	}
	st := pool.Stats()
	fmt.Fprintf(stderr, "[ripplesim] sweep: %d results — %d computed, %d store hits, %d coalesced (%d workers)\n",
		len(policies)*len(prefetchers), st.Computed, st.StoreHits, st.MemHits, pool.Workers())
	results := make([][]frontend.Result, len(policies))
	for i := range results {
		results[i] = make([]frontend.Result, len(prefetchers))
	}
	for n, f := range futs {
		vs, err := f.Get()
		if err != nil {
			return err
		}
		for k, v := range vs.([]any) {
			c := groups[n][k]
			results[c.pol][c.pf] = *(v.(*frontend.Result))
		}
	}
	if !jsonOut {
		printCoverage(stdout, reporter)
	}
	var out []map[string]interface{}
	for i, pol := range policies {
		for j, pf := range prefetchers {
			res := results[i][j]
			if jsonOut {
				out = append(out, withCoverage(resultJSON(res), coverageOf(reporter)))
				continue
			}
			fmt.Fprintf(stdout, "%-10s %-10s IPC %.3f  MPKI %6.2f  cycles %d\n",
				pol, pf, res.IPC(), res.MPKI(), res.Cycles)
		}
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	return nil
}

// fileHash returns the SHA-256 hex of a file's contents.
func fileHash(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:]), nil
}

// idealReport is the -ideal result: the Demand-MIN miss count for this
// configuration's access stream (prefetches included), the lower bound
// any replacement policy for the same prefetcher is compared against.
type idealReport struct {
	Engine     string
	Misses     uint64
	SampleSets int
	TotalSets  int
	History    int
}

// idealOf replays the exact access stream the simulation produced — same
// policy, prefetcher, hints, and warmup — through the selected oracle
// engine and returns its Demand-MIN miss count. The trace is re-decoded
// per oracle pass; nothing is materialized.
func idealOf(prog *program.Program, tr blockseq.Source, policy, prefetcher string,
	hints frontend.HintMode, warmup int, engine string, sets int) (*idealReport, error) {
	params := frontend.DefaultParams()
	newOpts := func() (frontend.Options, error) {
		pol, err := replacement.New(policy)
		if err != nil {
			return frontend.Options{}, err
		}
		pf, err := prefetch.New(prefetcher, prog)
		if err != nil {
			return frontend.Options{}, err
		}
		return frontend.Options{Policy: pol, Prefetcher: pf, Hints: hints, WarmupBlocks: warmup}, nil
	}
	events := frontend.AccessEvents(params, prog, tr, newOpts)
	switch engine {
	case "exact":
		r, err := opt.SimulateSource(events, params.L1I, opt.ModeDemandMIN, false)
		if err != nil {
			return nil, err
		}
		return &idealReport{Engine: engine, Misses: r.DemandMisses}, nil
	case "sampled":
		r, err := opt.SimulateSampled(events, params.L1I, opt.ModeDemandMIN, opt.OPTGenConfig{SampleSets: sets})
		if err != nil {
			return nil, err
		}
		return &idealReport{Engine: engine, Misses: r.EstimatedDemandMisses(),
			SampleSets: r.SampleSets, TotalSets: r.TotalSets, History: r.History}, nil
	}
	return nil, fmt.Errorf("unknown oracle engine %q", engine)
}

// emitJSON writes the run's metrics as a single JSON object, for scripted
// consumers (dashboards, regression checks).
func emitJSON(w io.Writer, res frontend.Result, cov *trace.DecodeReport, ideal *idealReport) error {
	m := withCoverage(resultJSON(res), cov)
	if ideal != nil {
		m["ideal_misses"] = ideal.Misses
		m["ideal_engine"] = ideal.Engine
		if ideal.Engine == "sampled" {
			m["ideal_sample_sets"] = ideal.SampleSets
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// coverageOf extracts the decode report a recovering source published
// after the simulation's passes; nil otherwise.
func coverageOf(reporter trace.Reporting) *trace.DecodeReport {
	if reporter == nil {
		return nil
	}
	rep, ok := reporter.DecodeReport()
	if !ok {
		return nil
	}
	return &rep
}

// withCoverage adds the -recover decode accounting to a JSON result; the
// schema is unchanged when not recovering.
func withCoverage(m map[string]interface{}, cov *trace.DecodeReport) map[string]interface{} {
	if cov != nil {
		m["trace_coverage"] = cov.Coverage()
		m["trace_blocks_lost"] = cov.BlocksLost()
		m["trace_damage_regions"] = len(cov.Regions)
	}
	return m
}

// printCoverage reports trace damage on the human-readable path.
func printCoverage(w io.Writer, reporter trace.Reporting) {
	cov := coverageOf(reporter)
	if cov == nil {
		return
	}
	fmt.Fprintf(w, "  trace coverage: %.2f%% of declared profile (%d of %d blocks", cov.Coverage()*100, cov.Decoded, cov.Declared)
	if len(cov.Regions) > 0 {
		fmt.Fprintf(w, "; %d damaged regions, %d blocks lost", len(cov.Regions), cov.BlocksLost())
	}
	fmt.Fprintln(w, ")")
}

// resultJSON flattens a result into the JSON schema emitJSON documents.
func resultJSON(res frontend.Result) map[string]interface{} {
	return map[string]interface{}{
		"program":           res.Program,
		"policy":            res.Policy,
		"prefetcher":        res.Prefetcher,
		"instructions":      res.Instrs,
		"hint_instructions": res.HintInstrs,
		"cycles":            res.Cycles,
		"ipc":               res.IPC(),
		"mpki":              res.MPKI(),
		"demand_misses":     res.L1I.DemandMisses,
		"late_prefetches":   res.LateMisses,
		"compulsory_misses": res.Compulsory,
		"l2_hits":           res.L2Hits,
		"l3_hits":           res.L3Hits,
		"memory_fills":      res.MemFills,
		"coverage":          res.Coverage(),
		"hint_accuracy":     res.HintAccuracy(),
		"policy_accuracy":   res.PolicyAccuracy(),
		"combined_accuracy": res.CombinedAccuracy(),
		"dynamic_overhead":  core.DynamicOverheadPct(res),
		"branch_mpki":       res.BranchMPKI,
	}
}

// load reads the simulation image and wires up a streaming source that
// decodes the trace against the image it was recorded on (block IDs are
// stable across rewriting, so the block sequence transfers). The trace is
// never materialized: each simulation pass re-decodes the file, keeping
// memory O(1) in the trace length. limit >= 0 caps the source to the
// first limit blocks. With rec the trace decodes in recovery mode and
// the returned reporter (the unwrapped trace source) publishes the
// damage accounting once a pass completes; the reporter is nil in
// strict mode. With indexed the source replays through the .ptidx seek
// index (rebuilt if missing or stale) — a pure acceleration: the block
// sequence, and therefore every result, is byte-identical.
func load(progPath, traceProgPath, ptPath string, limit int, rec, indexed bool, fo trace.FileOptions) (*program.Program, blockseq.Source, trace.Reporting, error) {
	loadProg := func(path string) (*program.Program, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return program.Load(f)
	}
	prog, err := loadProg(progPath)
	if err != nil {
		return nil, nil, nil, err
	}
	decodeProg := prog
	if traceProgPath != progPath {
		if decodeProg, err = loadProg(traceProgPath); err != nil {
			return nil, nil, nil, err
		}
		if decodeProg.NumBlocks() != prog.NumBlocks() {
			return nil, nil, nil, fmt.Errorf("-trace-prog has %d blocks, -prog has %d: not the same program", decodeProg.NumBlocks(), prog.NumBlocks())
		}
	}
	var src blockseq.Source
	var reporter trace.Reporting
	switch {
	case rec:
		fo.Recover = true
		ts := trace.FileSourceOptions(ptPath, decodeProg, fo)
		reporter, src = ts.(trace.Reporting), ts
	case indexed:
		if src, err = trace.IndexedFileSourceOptions(ptPath, decodeProg, fo); err != nil {
			return nil, nil, nil, err
		}
	default:
		src = trace.FileSourceOptions(ptPath, decodeProg, fo)
	}
	if limit >= 0 {
		src = blockseq.Limit(src, limit)
	}
	return prog, src, reporter, nil
}
