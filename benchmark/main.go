// Command ripplebench is the repository's end-to-end benchmark: three
// closed-loop workloads over the offline Ripple pipeline (trace -> decode
// -> demand lines -> MIN replay -> eviction windows -> cue selection ->
// threshold tuning -> plan), each generated from a seed, with correctness
// checks and, in a separate traced run, per-layer attribution.
//
//	bash benchmark/run.sh --workload plan-drupal --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones.
// See README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"
)

// Every runner pool is created with poolWorkers workers, the CLIs'
// default -j on the two-CPU machine the benchmark is sized for.
// runner.Group.Wait also runs queued jobs on the goroutine that waits,
// so a pool runs up to executors jobs at once.
const (
	poolWorkers = 2
	executors   = poolWorkers + 1
)

// spec fixes one workload's inputs. Sizes are part of the benchmark's
// definition: changing one changes every number it reports.
type spec struct {
	name   string
	app    string
	blocks int // profile length, in basic blocks
	window int // rolling analysis window W (= epoch E); rolling only
}

var specs = []spec{
	{name: "plan-drupal", app: "drupal", blocks: 300_000},
	{name: "sweep-verilator", app: "verilator", blocks: 150_000},
	{name: "rolling-finagle", app: "finagle-http", blocks: 600_000, window: 4096},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// config is one benchmark invocation.
type config struct {
	spec    spec
	seed    uint64
	seconds float64
	trace   bool
	workdir string    // scratch directory for traces, plans and spans
	setups  int       // set-ups per run; setup_s is their median
	corrupt string    // self-test fault: "", "trace" or "plan"
	log     io.Writer // progress and check failures
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Digest is the workload's output digest, printed on its own line.
	Digest string `json:"-"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ripplebench:", err)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ripplebench:", err)
		os.Exit(1)
	}
	fmt.Printf("digest %s %s\n", digestKey(cfg.spec, cfg.seed), res.Digest)
	raw, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ripplebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(raw))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("ripplebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: plan-drupal, sweep-verilator or rolling-finagle")
	seed := fs.Uint64("seed", 0, "input seed; 0 reproduces the ripplegen catalog trace")
	seconds := fs.Float64("seconds", 10, "measurement time per run")
	traced := fs.Int("trace", 0, "1 makes the traced run that reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	sp, ok := specByName(*name)
	if !ok {
		return config{}, fmt.Errorf("unknown -workload %q", *name)
	}
	if *traced != 0 && *traced != 1 {
		return config{}, fmt.Errorf("-trace must be 0 or 1 (got %d)", *traced)
	}
	if *seconds <= 0 {
		return config{}, errors.New("-seconds must be positive")
	}
	return config{
		spec: sp, seed: *seed, seconds: *seconds, trace: *traced == 1,
		workdir: filepath.Join(".bench_build", "work"), setups: 3, log: os.Stderr,
	}, nil
}

// workloadRun is one workload's closed loop.
type workloadRun interface {
	// setup prepares the inputs from scratch; run repeats it.
	setup(b *bench, parent int) error
	// checkSetup verifies the set-up's outputs once.
	checkSetup(b *bench, parent int)
	// unit performs one closed-loop operation: a plan, a grid pass, or a
	// rolling pass over the trace.
	unit(b *bench, parent int) (*unitOut, error)
	// checkUnits verifies outputs that are too costly to check per unit.
	checkUnits(b *bench, parent int)
	// probe makes the traced run's extra per-stage calls and returns the
	// workload-specific layer figures.
	probe(b *bench, parent int, tree *spanTree, traced []*unitOut) (*layerOut, error)
}

func newWorkload(sp spec) workloadRun {
	switch sp.name {
	case "plan-drupal":
		return &planRun{spec: sp}
	case "sweep-verilator":
		return &sweepRun{spec: sp}
	default:
		return &rollingRun{spec: sp}
	}
}

// unitOut is what one unit measured.
type unitOut struct {
	root      int           // the unit's root span (traced units only)
	wall      time.Duration // unit wall time
	blocks    int           // profiled, simulated or consumed blocks
	latencies []time.Duration
	decoded   uint64 // trace blocks decoded by the unit's file source
	digest    string
	speedup   float64 // simulated speedup of the plan(s), percent
	mpki      float64 // simulated L1I MPKI of the planned run(s)
	pool      poolStats
	windows   int     // eviction windows analyzed
	allocMB   float64 // heap allocated by core.Analyze
	peakMB    float64 // peak memory held from the OS during the unit
}

// poolStats is the part of runner.Stats the benchmark reports.
type poolStats struct {
	computed, memHits int64
	compute           time.Duration
}

// bench is the state of one run.
type bench struct {
	cfg               config
	tr                *tracer
	attempted, failed int
}

func (b *bench) begin(name string, parent int) int { return b.tr.begin(name, parent) }
func (b *bench) end(id int)                        { b.tr.end(id) }

// op counts one attempted operation; a non-nil error counts it failed.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(b.cfg.log, "ripplebench: %s: %v\n", b.cfg.spec.name, err)
	}
}

// check counts one correctness check.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(b.cfg.log, "ripplebench: %s: check failed: %s\n", b.cfg.spec.name, fmt.Sprintf(format, args...))
	}
}

// run executes one benchmark run: set-ups, checks, the measured closed
// loop, and (traced) the probes.
func run(cfg config) (*result, error) {
	if err := os.RemoveAll(cfg.workdir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg}
	if cfg.trace {
		b.tr = newTracer()
	}
	w := newWorkload(cfg.spec)

	var setups []time.Duration
	for i := 0; i < cfg.setups; i++ {
		freeMemory()
		b.tr.setOn(true)
		root := b.begin("bench.setup", 0)
		t0 := time.Now()
		err := w.setup(b, root)
		setups = append(setups, time.Since(t0))
		b.end(root)
		if err != nil {
			b.op(fmt.Errorf("set-up: %w", err))
			return b.result(nil, ""), nil
		}
	}
	root := b.begin("bench.check", 0)
	w.checkSetup(b, root)
	b.end(root)
	b.tr.setOn(false)

	// The closed loop: one unit at a time until the time is up. The traced
	// run alternates untraced and traced units, so the two halves measure
	// the same work and their difference is the tracing overhead.
	var all, plain, traced []*unitOut
	start := time.Now()
	for i := 0; ; i++ {
		on := cfg.trace && i%2 == 1
		freeMemory()
		b.tr.setOn(on)
		root := b.begin("bench.unit", 0)
		mem := startMemSampler()
		t0 := time.Now()
		u, err := w.unit(b, root)
		wall := time.Since(t0)
		peak := mem.stop()
		b.end(root)
		b.tr.setOn(false)
		b.op(err)
		if err == nil {
			u.root, u.wall, u.peakMB = root, wall, peak
			if len(u.latencies) == 0 {
				u.latencies = []time.Duration{wall}
			}
			if len(all) > 0 {
				b.check(u.digest == all[0].digest, "unit output digest %.16s differs from the first unit's %.16s", u.digest, all[0].digest)
			}
			all = append(all, u)
			if on {
				traced = append(traced, u)
			} else {
				plain = append(plain, u)
			}
		}
		// Past the time, stop once the run has what it reports, or when
		// units are failing.
		if time.Since(start).Seconds() >= cfg.seconds && (err != nil || len(plain) > 0 && (!cfg.trace || len(traced) > 0)) {
			break
		}
	}
	b.tr.setOn(true)
	root = b.begin("bench.check", 0)
	w.checkUnits(b, root)
	b.end(root)

	digest := ""
	if len(all) > 0 {
		digest = all[0].digest
		if want, ok := goldenDigest(cfg.spec, cfg.seed); ok {
			b.check(digest == want, "output digest %.16s differs from the recorded %.16s", digest, want)
		}
	}
	if len(plain) == 0 || cfg.trace && len(traced) == 0 {
		return b.result(nil, digest), nil
	}
	if !cfg.trace {
		ms := endToEnd(plain, setups)
		ms["ok_pct"] = metric{b.okPct(), "%"}
		return b.result(ms, digest), nil
	}

	root = b.begin("bench.probe", 0)
	lo, err := w.probe(b, root, newSpanTree(b.tr.snapshot()), traced)
	b.end(root)
	b.tr.setOn(false)
	b.op(err)
	if err != nil {
		return b.result(nil, digest), nil
	}
	if err := b.tr.write(filepath.Join(cfg.workdir, "spans.json")); err != nil {
		return nil, err
	}
	return b.result(perLayer(newSpanTree(b.tr.snapshot()), plain, traced, lo), digest), nil
}

// result assembles the output; non-finite values are reported as 0.
func (b *bench) result(ms map[string]metric, digest string) *result {
	if ms == nil {
		ms = map[string]metric{}
	}
	for k, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			ms[k] = metric{0, m.Unit}
		}
	}
	return &result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   ms,
		Digest:    digest,
	}
}

// endToEnd derives the untraced run's metrics.
func endToEnd(units []*unitOut, setups []time.Duration) map[string]metric {
	var rates, lat, peaks []float64
	for _, u := range units {
		rates = append(rates, float64(u.blocks)/u.wall.Seconds())
		peaks = append(peaks, u.peakMB)
		for _, l := range u.latencies {
			lat = append(lat, ms(l))
		}
	}
	var ss []float64
	for _, s := range setups {
		ss = append(ss, s.Seconds())
	}
	return map[string]metric{
		"setup_s":      {median(ss), "s"},
		"blocks_per_s": {median(rates), "blocks/s"},
		"epoch_ms_p50": {percentile(lat, 50), "ms"},
		"epoch_ms_p90": {percentile(lat, 90), "ms"},
		"peak_rss_mb":  {median(peaks), "MB"},
		"l1i_mpki":     {units[0].mpki, "MPKI"},
	}
}

// okPct is the share of attempted operations and checks that succeeded;
// error_rate = 1 - ok_pct/100 = failed/attempted.
func (b *bench) okPct() float64 {
	return 100 * float64(b.attempted-b.failed) / float64(b.attempted)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile interpolates linearly between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func durations(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.dur().Seconds()
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// memSampler samples, about every millisecond, the memory the Go
// runtime holds from the OS (mapped minus released: heap, stacks and
// runtime metadata), the process's resident set less its binary. Its
// peak is the 99th percentile of the samples: with three jobs
// allocating at once, the single highest sample depends on where the
// collector happened to run and moves by a fifth from run to run of one
// input, while the 99th percentile moves by a few percent.
type memSampler struct {
	done chan struct{}
	peak chan float64
}

func startMemSampler() *memSampler {
	m := &memSampler{done: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var held []float64
		for {
			metrics.Read(s)
			held = append(held, float64(s[0].Value.Uint64()-s[1].Value.Uint64())/(1<<20))
			select {
			case <-m.done:
				m.peak <- percentile(held, 99)
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// stop ends the sampling and returns the peak in MiB.
func (m *memSampler) stop() float64 {
	close(m.done)
	return <-m.peak
}

// freeMemory returns the heap to the OS before a set-up or unit, so each
// starts from the state a fresh CLI process would: one unit's garbage
// neither slows the next nor raises the peak RSS it reports.
func freeMemory() { debug.FreeOSMemory() }

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
