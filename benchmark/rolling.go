package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"time"

	"ripple/internal/blockseq"
	"ripple/internal/core"
	"ripple/internal/program"
	"ripple/internal/runner"
)

// rollingRun is rolling-finagle: the ripplewatch epoch body run back to
// back. A unit streams the trace file once; every W blocks (epoch E = W)
// it analyzes and tunes the trailing W-block window, as watch.Run does,
// on one runner pool for the whole pass.
type rollingRun struct {
	spec spec
	in   *input

	epochs   int                 // epochs per pass
	checks   []epochCheck        // sampled epochs of the first pass, checked after the loop
	windows  [][]program.BlockID // the latest traced pass's windows, for the stage probes
	lastAn   *core.Analysis
	lastPlan *core.Plan
}

// epochCheck keeps one epoch's inputs and outputs for checking.
type epochCheck struct {
	win  []program.BlockID
	an   *core.Analysis
	plan *core.Plan
}

// checkEvery samples the epochs whose outputs checkUnits verifies.
const checkEvery = 16

func (r *rollingRun) setup(b *bench, parent int) error {
	in, err := b.makeInput(r.spec.app, r.spec.blocks, filepath.Join(b.cfg.workdir, "profile.pt"), parent)
	r.in = in
	return err
}

func (r *rollingRun) checkSetup(b *bench, parent int) { b.checkDecode(r.in, parent) }

func (r *rollingRun) unit(b *bench, parent int) (*unitOut, error) {
	w := r.spec.window
	src := fileSource(r.in)
	defer closeSource(src)
	seq := src.Open()
	pool := runner.New(runner.Options{Workers: poolWorkers})
	acfg, tcfg := core.DefaultAnalysisConfig(), tuneConfig()
	first := r.checks == nil
	traced := parent != 0
	if traced {
		r.windows = r.windows[:0]
	}

	u := &unitOut{}
	h := sha256.New()
	buf := make([]program.BlockID, 0, w)
	for {
		id := b.begin("trace.Next", parent)
		buf = buf[:0]
		for len(buf) < w {
			bid, ok := seq.Next()
			if !ok {
				break
			}
			buf = append(buf, bid)
		}
		b.end(id)
		u.blocks += len(buf)
		if len(buf) < w {
			break // the trace ended before the next epoch boundary
		}

		t0 := time.Now()
		win := append([]program.BlockID(nil), buf...)
		an, tuned, digest, alloc, err := b.epoch(r.in.prog, win, acfg, tcfg, pool, parent)
		u.latencies = append(u.latencies, time.Since(t0))
		b.op(err)
		if err != nil {
			return nil, err
		}
		u.allocMB += float64(alloc) / (1 << 20)
		u.windows += an.Windows
		u.speedup += tuned.BestPoint().SpeedupPct
		u.mpki += tuned.BestPoint().MPKI
		h.Write([]byte(digest))
		r.lastAn, r.lastPlan = an, tuned.BestPlan
		n := len(u.latencies)
		if first && n%checkEvery == 1 {
			r.checks = append(r.checks, epochCheck{win: win, an: an, plan: tuned.BestPlan})
		}
		if traced {
			r.windows = append(r.windows, win)
		}
	}
	if err := seq.Err(); err != nil {
		return nil, err
	}
	n := len(u.latencies)
	if n == 0 {
		return nil, fmt.Errorf("trace of %d blocks is shorter than one %d-block epoch", u.blocks, w)
	}
	r.epochs = n
	u.speedup /= float64(n)
	u.mpki /= float64(n)
	u.decoded = decodedBlocks(src)
	u.digest = hex.EncodeToString(h.Sum(nil))
	u.pool = statsOf(pool)
	return u, nil
}

// epoch is watch's per-epoch body: analyze the window, tune over the
// default thresholds keyed by the window's content, digest the winner.
func (b *bench) epoch(prog *program.Program, win []program.BlockID, acfg core.AnalysisConfig, tcfg core.TuneConfig, pool *runner.Pool, parent int) (
	an *core.Analysis, tuned *core.TuneResult, digest string, alloc uint64, err error) {
	src := blockseq.SliceSource(win)
	a0 := allocBytes()
	id := b.begin("core.Analyze", parent)
	an, err = core.Analyze(prog, src, acfg)
	b.end(id)
	alloc = allocBytes() - a0
	if err != nil {
		return
	}
	id = b.begin("core.TuneParallel", parent)
	tuned, err = core.TuneParallel(an, src, tcfg, core.ParallelOptions{Pool: pool, SourceID: windowID(win)})
	b.end(id)
	if err != nil {
		return
	}
	id = b.begin("core.Plan.Digest", parent)
	digest, err = tuned.BestPlan.Digest()
	b.end(id)
	return
}

// windowID is the window's content identity, as ripplewatch keys its
// per-epoch sweeps.
func windowID(win []program.BlockID) string {
	h := sha256.New()
	var buf [8]byte
	for _, bid := range win {
		binary.LittleEndian.PutUint64(buf[:], uint64(bid))
		h.Write(buf[:])
	}
	return "watchwin:" + hex.EncodeToString(h.Sum(nil))
}

func (r *rollingRun) checkUnits(b *bench, parent int) {
	if len(r.checks) == 0 {
		b.check(false, "no epoch completed")
	}
	for i, c := range r.checks {
		b.checkIdealMisses(r.in.prog, blockseq.SliceSource(c.win), c.an, parent)
		if _, err := b.saveAndReload(c.plan, filepath.Join(b.cfg.workdir, fmt.Sprintf("epoch-%d.plan", i)), parent); err != nil {
			b.op(err)
		}
	}
}

func (r *rollingRun) probe(b *bench, parent int, tree *spanTree, traced []*unitOut) (*layerOut, error) {
	lo := &layerOut{analysisInUnit: true, profileBlocks: len(r.in.blocks)}
	lo.fromAnalysisSpans(tree, tree.roots("bench.unit"), traced)
	if err := b.probeStages(lo, r.in.prog, r.windows, parent); err != nil {
		return nil, err
	}
	if err := b.probeCommon(lo, r.in, r.lastAn, r.lastPlan, r.spec.window, parent); err != nil {
		return nil, err
	}
	b.check(lo.watchEpochs == r.epochs, "watch.Run counted %d epochs, the benchmark %d", lo.watchEpochs, r.epochs)
	return lo, nil
}
