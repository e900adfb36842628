// Package runner schedules independent, deterministic simulation jobs
// across a worker pool and memoizes their results in memory and in an
// optional content-addressed on-disk store.
//
// A Job couples a stable string signature with the computation it
// identifies: equal signatures MUST mean bit-identical results, because
// the pool deduplicates concurrent requests (singleflight), serves
// repeats from memory, and serves later processes from the store without
// ever re-running the job. Determinism is the caller's contract; jobs
// that need randomness must derive it from Seed(sig) (or an equivalent
// signature-keyed seed) rather than any shared or time-dependent source,
// so results do not depend on scheduling order or worker count.
//
// The pool executes batches largest-cost-first so long-pole jobs start
// early, captures panics as errors, honors context cancellation (pending
// jobs are skipped, running jobs finish, workers drain), and reports
// structured progress (jobs done/total, per-job wall time, store
// hit/miss counts) to an optional log writer.
package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Job is one unit of deterministic work, identified by its signature.
type Job struct {
	// Sig is the full run signature: every input that can change the
	// result must be encoded in it (see the package comment).
	Sig string
	// Label is the short human-readable name used in progress logs.
	Label string
	// Cost is a relative scheduling hint; batches run largest-first.
	Cost float64
	// SkipStore excludes this job from the persistent store (both
	// lookup and write); in-process memoization still applies. Set it
	// when the signature is process-unique — e.g. derived from a source
	// with no stable content identity — so the store is not polluted
	// with entries no later run can ever hit.
	SkipStore bool
	// Timeout bounds one execution attempt: the job body's context is
	// canceled after this long, and the resulting deadline error counts
	// as transient (retried when the pool allows retries). <= 0 means no
	// per-job bound.
	Timeout time.Duration

	run    func(context.Context) (any, error)
	decode func([]byte) (any, error)
}

// NewJob builds a job whose result is a *T. Results are persisted as
// JSON, so T must round-trip through encoding/json.
func NewJob[T any](sig, label string, cost float64, fn func(context.Context) (*T, error)) Job {
	return Job{
		Sig:    sig,
		Label:  label,
		Cost:   cost,
		run:    func(ctx context.Context) (any, error) { return fn(ctx) },
		decode: decodeAs[T],
	}
}

// decodeAs decodes a persisted result into a *T.
func decodeAs[T any](raw []byte) (any, error) {
	v := new(T)
	if err := json.Unmarshal(raw, v); err != nil {
		return nil, err
	}
	return v, nil
}

// MultiJob is one execution that yields several signed results, such as
// one lockstep simulation of several configurations. Each result is
// memoized, coalesced and stored under its own signature; one call of
// the body computes the signatures no cache level could serve. A Job is
// the one-signature case and runs through the same path, so MultiJobs
// and Jobs over the same signatures share every cache level.
type MultiJob struct {
	// Sigs are the result signatures, each under the Job.Sig contract.
	Sigs []string
	// Label, Cost and SkipStore are as for Job; Cost covers the whole
	// execution.
	Label     string
	Cost      float64
	SkipStore bool

	run     func(ctx context.Context, want []int) ([]any, error)
	decode  func([]byte) (any, error)
	timeout time.Duration // a Job's Timeout
}

// NewMultiJob builds a job whose results are *Ts, one per signature. fn
// receives the indices into sigs that must be computed, in ascending
// order, and returns their results in that order.
func NewMultiJob[T any](sigs []string, label string, cost float64, fn func(ctx context.Context, want []int) ([]*T, error)) MultiJob {
	return MultiJob{
		Sigs:  sigs,
		Label: label,
		Cost:  cost,
		run: func(ctx context.Context, want []int) ([]any, error) {
			vs, err := fn(ctx, want)
			if err != nil {
				return nil, err
			}
			if len(vs) != len(want) {
				return nil, fmt.Errorf("runner: job %s returned %d results for %d signatures", label, len(vs), len(want))
			}
			out := make([]any, len(vs))
			for i, v := range vs {
				out[i] = v
			}
			return out, nil
		},
		decode: decodeAs[T],
	}
}

// multi returns j as the one-signature MultiJob the pool executes.
func (j Job) multi() MultiJob {
	m := MultiJob{Sigs: []string{j.Sig}, Label: j.label(), Cost: j.Cost, SkipStore: j.SkipStore, decode: j.decode, timeout: j.Timeout}
	if j.run != nil {
		m.run = func(ctx context.Context, _ []int) ([]any, error) {
			v, err := j.run(ctx)
			if err != nil {
				return nil, err
			}
			return []any{v}, nil
		}
	}
	return m
}

func (m MultiJob) label() string {
	if m.Label != "" {
		return m.Label
	}
	return fmt.Sprintf("%d-result job", len(m.Sigs))
}

// Split deals items 0..n-1 round-robin into min(parts, n) groups (at
// least one when n > 0): group g holds g, g+k, g+2k, … in ascending
// order. A lockstep job shares one pass among its members, so callers
// split equal-cost runs into no more groups than can execute at once.
func Split(n, parts int) [][]int {
	if n <= 0 {
		return nil
	}
	k := max(1, min(parts, n))
	groups := make([][]int, k)
	for i := range n {
		groups[i%k] = append(groups[i%k], i)
	}
	return groups
}

// Seed derives a deterministic 64-bit RNG seed from a job signature
// (FNV-1a), so each job can own a private random stream that depends
// only on what the job is, never on when or where it runs.
func Seed(sig string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(sig); i++ {
		h ^= uint64(sig[i])
		h *= prime64
	}
	return h
}

// Options configures a Pool.
type Options struct {
	// Workers bounds the worker goroutines the pool spawns; <= 0 uses
	// GOMAXPROCS. A goroutine blocked in Group.Wait or Future.Get lends
	// itself too and runs still-queued jobs inline, so up to Workers jobs
	// plus one per such waiting goroutine may execute at once.
	Workers int
	// Store, when non-nil, persists every successful result. A backend
	// that also implements Coordinator extends deduplication to fleet
	// scope (see Coordinator).
	Store StoreBackend
	// Log receives progress lines (nil silences them).
	Log io.Writer
	// Retries bounds re-executions of a job attempt whose error is
	// Transient; 0 disables retry.
	Retries int
	// RetryBackoff is the base delay before the first retry, doubled per
	// attempt with signature-seeded jitter (see RetryDelay); <= 0
	// defaults to 10ms.
	RetryBackoff time.Duration
}

// Stats summarizes what a pool has done so far.
type Stats struct {
	// Computed counts results actually computed: one per signature an
	// executed Job or MultiJob computed.
	Computed int64
	// StoreHits counts results served from the on-disk store.
	StoreHits int64
	// MemHits counts results served from (or coalesced with) an earlier
	// in-process call.
	MemHits int64
	// Errors counts failed job executions (including panics).
	Errors int64
	// Retries counts re-executions after transient errors.
	Retries int64
	// Quarantined counts damaged store entries moved aside (see
	// Store.Quarantine) instead of being silently re-missed every run.
	Quarantined int64
	// Recovered counts quarantined entries that were recomputed and
	// rewritten, making the next warm run hit again.
	Recovered int64
	// FleetHits counts jobs resolved by waiting on another process's
	// computation through a Coordinator backend: the fleet-scope analog
	// of MemHits.
	FleetHits int64
	// ComputeTime is the summed wall time of executed jobs.
	ComputeTime time.Duration
}

// call is one in-flight or completed computation (singleflight slot).
type call struct {
	done chan struct{}
	val  any
	err  error
}

// Pool runs jobs across a bounded set of workers.
type Pool struct {
	workers int
	store   StoreBackend
	log     *syncWriter
	retries int
	backoff time.Duration
	// sem is the pool-wide worker budget: every spawned worker goroutine
	// (RunAll batches and Groups alike) holds one slot while it runs, so
	// nested fan-out shares the budget instead of multiplying it.
	sem chan struct{}

	mu    sync.Mutex
	calls map[string]*call

	computed    atomic.Int64
	storeHits   atomic.Int64
	memHits     atomic.Int64
	fleetHits   atomic.Int64
	errs        atomic.Int64
	retried     atomic.Int64
	quarantined atomic.Int64
	recovered   atomic.Int64
	computeTime atomic.Int64 // nanoseconds
}

// New builds a pool.
func New(opts Options) *Pool {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	backoff := opts.RetryBackoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	store := opts.Store
	if s, ok := store.(*Store); ok && s == nil {
		// A typed-nil *Store smuggled into the interface must behave
		// like "no store", not panic on first lookup.
		store = nil
	}
	return &Pool{
		workers: w,
		store:   store,
		log:     &syncWriter{w: opts.Log},
		retries: opts.Retries,
		backoff: backoff,
		sem:     make(chan struct{}, w),
		calls:   make(map[string]*call),
	}
}

// Workers returns the concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Store returns the persistent store backend, or nil.
func (p *Pool) Store() StoreBackend { return p.store }

// LogWriter returns a writer that serializes concurrent writes to the
// configured log (safe to share with job bodies).
func (p *Pool) LogWriter() io.Writer { return p.log }

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Computed:    p.computed.Load(),
		StoreHits:   p.storeHits.Load(),
		MemHits:     p.memHits.Load(),
		FleetHits:   p.fleetHits.Load(),
		Errors:      p.errs.Load(),
		Retries:     p.retried.Load(),
		Quarantined: p.quarantined.Load(),
		Recovered:   p.recovered.Load(),
		ComputeTime: time.Duration(p.computeTime.Load()),
	}
}

func (p *Pool) logf(format string, args ...any) {
	p.log.printf(format, args...)
}

// Do returns the job's result, computing it at most once per process:
// concurrent calls with the same signature coalesce, completed results
// are served from memory, and (with a store) from disk across processes.
// A cache miss computes inline on the caller's goroutine, so nested Do
// calls from inside a running job cannot deadlock.
func (p *Pool) Do(ctx context.Context, j Job) (any, error) {
	v, _, err := p.do(ctx, j.multi())
	return v, err
}

// do is doMulti for a Job's one signature.
func (p *Pool) do(ctx context.Context, m MultiJob) (any, bool, error) {
	vs, computed, err := p.doMulti(ctx, m)
	if err != nil {
		return nil, computed, err
	}
	return vs[0], computed, nil
}

// lookup serves sig from the persistent store when storable. healing
// reports that a damaged entry was quarantined, so the next publish
// heals it.
func (p *Pool) lookup(sig, label string, decode func([]byte) (any, error), storable bool) (v any, ok, healing bool) {
	if p.store == nil || !storable {
		return nil, false, false
	}
	raw, st := p.store.Lookup(sig)
	switch st {
	case StatusHit:
		if v, err := decode(raw); err == nil {
			p.storeHits.Add(1)
			return v, true, false
		}
		// Valid entry framing but an undecodable payload (schema
		// drift): quarantine it like any other corruption.
		p.store.Quarantine(sig)
		p.quarantined.Add(1)
		p.logf("[runner] quarantined undecodable store entry for %s (recomputing)", label)
		return nil, false, true
	case StatusCorrupt:
		p.quarantined.Add(1)
		p.logf("[runner] quarantined corrupt store entry for %s (recomputing)", label)
		return nil, false, true
	}
	return nil, false, false
}

// coordinate is the fleet-scope singleflight: with a coordinating
// backend, either wait for another process's published result (ok) or
// win the compute lease. Coordination failure (backend outage) degrades
// to local compute with a nil lease.
func (p *Pool) coordinate(ctx context.Context, sig string, decode func([]byte) (any, error), storable bool) (v any, ok bool, lease Lease, err error) {
	coord, isCoord := p.store.(Coordinator)
	if !isCoord || !storable {
		return nil, false, nil, nil
	}
	raw, l, err := coord.Coordinate(ctx, sig)
	if err != nil {
		return nil, false, nil, err
	}
	if raw != nil {
		if v, err := decode(raw); err == nil {
			p.fleetHits.Add(1)
			return v, true, nil, nil
		}
		// An undecodable published payload (schema drift): fall
		// through and compute locally; Put will replace it.
	}
	return nil, false, l, nil
}

// publish persists a computed result and resolves its lease.
func (p *Pool) publish(sig, label string, v any, persist, healing bool, lease Lease) {
	published := false
	if p.store != nil && persist {
		if perr := p.store.Put(sig, v); perr != nil {
			p.logf("[runner] warning: persisting %s: %v", label, perr)
		} else {
			published = true
			if healing {
				p.recovered.Add(1)
			}
		}
	}
	if lease != nil {
		// A lease resolved without a published result returns the
		// signature to the queue, so a waiting worker recomputes instead
		// of waiting out the TTL on a result that never arrived.
		if published {
			lease.Done()
		} else {
			lease.Release()
		}
	}
}

// doMulti returns a MultiJob's results, one per signature, computing
// only the signatures that no in-process call, store entry or fleet
// peer can serve — all of them in one call of the job's body, inline on
// the caller's goroutine.
func (p *Pool) doMulti(ctx context.Context, m MultiJob) (vals []any, computed bool, err error) {
	if len(m.Sigs) == 0 || m.run == nil || slices.Contains(m.Sigs, "") {
		return nil, false, errors.New("runner: job missing signature or body")
	}
	// Claim every signature no in-process call holds yet. A repeated
	// signature finds its own earlier claim and waits on it below.
	calls := make([]*call, len(m.Sigs))
	var own []int
	p.mu.Lock()
	for i, sig := range m.Sigs {
		if c, ok := p.calls[sig]; ok {
			calls[i] = c
			continue
		}
		calls[i] = &call{done: make(chan struct{})}
		p.calls[sig] = calls[i]
		own = append(own, i)
	}
	p.mu.Unlock()

	if len(own) > 0 {
		computed = p.computeMulti(ctx, m, own, calls)
		p.mu.Lock()
		for _, i := range own {
			if c := calls[i]; c.err != nil && (errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)) {
				// A canceled attempt must not poison later retries.
				delete(p.calls, m.Sigs[i])
			}
		}
		p.mu.Unlock()
		for _, i := range own {
			close(calls[i].done)
		}
	}
	// Wait on the signatures other calls own only after resolving this
	// job's own, so two multi-jobs that overlap cannot wait on each
	// other.
	vals = make([]any, len(m.Sigs))
	for i, c := range calls {
		if len(own) > 0 && own[0] == i {
			own = own[1:]
		} else {
			select {
			case <-c.done:
				p.memHits.Add(1)
			case <-ctx.Done():
				return nil, computed, ctx.Err()
			}
		}
		if c.err != nil {
			return nil, computed, c.err
		}
		vals[i] = c.val
	}
	return vals, computed, nil
}

// computeMulti resolves the claimed signatures own of m into their
// calls: from the store, from fleet peers, and the rest from one run of
// the body. It reports whether the body ran.
func (p *Pool) computeMulti(ctx context.Context, m MultiJob, own []int, calls []*call) bool {
	fail := func(idx []int, err error) {
		for _, i := range idx {
			calls[i].err = err
		}
	}
	if err := ctx.Err(); err != nil {
		fail(own, err)
		return false
	}
	storable := m.decode != nil && !m.SkipStore
	healing := make([]bool, len(m.Sigs))
	var rest []int
	for _, i := range own {
		v, ok, heal := p.lookup(m.Sigs[i], m.label(), m.decode, storable)
		if ok {
			calls[i].val = v
			continue
		}
		healing[i] = heal
		rest = append(rest, i)
	}
	// Take fleet leases in signature order: every process then acquires
	// them in one global order, so no two can each hold a lease the
	// other waits for.
	if len(rest) > 1 {
		sort.Slice(rest, func(a, b int) bool { return m.Sigs[rest[a]] < m.Sigs[rest[b]] })
	}
	leases := make([]Lease, len(m.Sigs))
	releaseAll := func() {
		for _, l := range leases {
			if l != nil {
				l.Release()
			}
		}
	}
	var want []int
	for k, i := range rest {
		v, ok, lease, err := p.coordinate(ctx, m.Sigs[i], m.decode, storable)
		if err != nil {
			releaseAll()
			fail(rest[k:], err)
			fail(want, err)
			return false
		}
		if ok {
			calls[i].val = v
			continue
		}
		leases[i] = lease
		want = append(want, i)
	}
	if len(want) == 0 {
		return false
	}
	sort.Ints(want)
	t0 := time.Now()
	vs, err := p.runWithRetry(ctx, m, want)
	d := time.Since(t0)
	if err != nil {
		p.errs.Add(1)
		releaseAll()
		fail(want, err)
		return true
	}
	p.computed.Add(int64(len(want)))
	p.computeTime.Add(int64(d))
	for k, i := range want {
		calls[i].val = vs[k]
		p.publish(m.Sigs[i], m.label(), calls[i].val, !m.SkipStore, healing[i], leases[i])
	}
	return true
}

// runWithRetry computes the signatures want of m with the pool's bounded
// retry policy: attempts whose error is Transient are re-run up to
// Options.Retries times, sleeping a deterministic signature-seeded
// exponential backoff (RetryDelay, seeded by the wanted signatures)
// between attempts. Non-transient errors, success, context
// cancellation, and retry exhaustion all end the loop.
func (p *Pool) runWithRetry(ctx context.Context, m MultiJob, want []int) ([]any, error) {
	for attempt := 0; ; attempt++ {
		vs, err := runSafe(ctx, m, want)
		if err == nil || !Transient(err) || attempt >= p.retries || ctx.Err() != nil {
			return vs, err
		}
		p.retried.Add(1)
		wantSigs := make([]string, len(want))
		for k, i := range want {
			wantSigs[k] = m.Sigs[i]
		}
		delay := RetryDelay(p.backoff, strings.Join(wantSigs, "\n"), attempt+1)
		p.logf("[runner] retry %d/%d for %s in %v after transient error: %v",
			attempt+1, p.retries, m.label(), delay.Round(time.Millisecond), err)
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		case <-t.C:
		}
	}
}

// runSafe executes one job attempt, applying the job's per-attempt
// timeout and converting a panic into an error so one bad job cannot
// take down a whole suite run.
func runSafe(ctx context.Context, m MultiJob, want []int) (vs []any, err error) {
	if m.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: job %s panicked: %v\n%s", m.label(), r, debug.Stack())
		}
	}()
	return m.run(ctx, want)
}

// ErrTransient is the sentinel for errors worth retrying: wrap it (or
// implement `Transient() bool`) to opt a failure into the pool's retry
// policy.
var ErrTransient = errors.New("runner: transient error")

// Transient classifies an error as retry-worthy: it wraps ErrTransient,
// implements `Transient() bool` returning true, or is a deadline
// expiry (a per-job Timeout firing). Context cancellation is never
// transient — the caller asked to stop.
func Transient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) {
		return false
	}
	if errors.Is(err, ErrTransient) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// RetryDelay returns the deterministic backoff before retry `attempt`
// (1-based) of the job with signature sig: base doubled per attempt,
// scaled by a jitter factor in [0.5, 1.5) seeded from the signature and
// attempt number — so a given job's retry schedule replays identically
// across runs and machines while distinct jobs spread out.
func RetryDelay(base time.Duration, sig string, attempt int) time.Duration {
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	shift := attempt - 1
	if shift < 0 {
		shift = 0
	}
	if shift > 20 {
		shift = 20 // cap: beyond base<<20 the jitter range is already hours
	}
	d := base << uint(shift)
	jitter := 0.5 + float64(Seed(fmt.Sprintf("%s|retry=%d", sig, attempt))%(1<<20))/float64(1<<21)
	return time.Duration(float64(d) * jitter)
}

func (j Job) label() string {
	if j.Label != "" {
		return j.Label
	}
	if len(j.Sig) > 48 {
		return j.Sig[:48] + "..."
	}
	return j.Sig
}

// RunAll executes a batch of jobs across the pool's workers,
// largest-cost-first (ties broken by signature for a deterministic
// order). Duplicate signatures are scheduled once. The first job error
// stops the scheduling of further jobs and is returned after all workers
// drain; a canceled context likewise skips pending jobs, waits for
// running ones, and returns the context error.
func (p *Pool) RunAll(ctx context.Context, jobs []Job) error {
	seen := make(map[string]bool, len(jobs))
	q := make([]Job, 0, len(jobs))
	for _, j := range jobs {
		if j.Sig != "" && !seen[j.Sig] {
			seen[j.Sig] = true
			q = append(q, j)
		}
	}
	if len(q) == 0 {
		return ctx.Err()
	}
	sort.SliceStable(q, func(i, k int) bool {
		if q[i].Cost != q[k].Cost {
			return q[i].Cost > q[k].Cost
		}
		return q[i].Sig < q[k].Sig
	})

	start := time.Now()
	before := p.Stats()
	g := p.NewGroup(ctx)
	for _, j := range q {
		g.Submit(j)
	}
	err := g.Wait()
	st := p.Stats()
	p.logf("[runner] batch: %d jobs in %v — %d computed, %d store hits, %d coalesced (%d workers)",
		len(q), time.Since(start).Round(time.Millisecond),
		st.Computed-before.Computed, st.StoreHits-before.StoreHits, st.MemHits-before.MemHits, p.workers)
	if err != nil {
		return err
	}
	return ctx.Err()
}

// ErrSkipped marks a Future abandoned before it ran because an earlier
// job in its group failed or the group's context was canceled. Get
// reports it (wrapped) so waiters never hang on work that will not
// happen.
var ErrSkipped = errors.New("runner: job skipped")

// Group collects related jobs and runs them on the pool's shared worker
// budget. It is the sub-job API: safe to use from inside a running job,
// so a job that fans out (threshold tuning inside a suite cell) shares
// the pool instead of nesting a second worker set.
//
// Submit never blocks — it queues the job and, when the pool has a free
// worker slot, spawns a worker to drain the queue. Wait executes
// still-queued jobs inline on the calling goroutine, so progress is
// guaranteed even when every slot is busy (the nested case: the caller
// is itself a worker and lends its slot to its sub-jobs). The first job
// error stops the scheduling of still-pending jobs.
type Group struct {
	pool *Pool
	ctx  context.Context

	mu      sync.Mutex
	queue   []*Future // submitted and not yet claimed
	total   int       // all submissions (for progress logs)
	stopped bool      // a job failed: pending futures are skipped
	cause   error     // first job failure, wrapped with its label
	wg      sync.WaitGroup
	done    atomic.Int64
}

// Future is the pending result of one job submitted to a Group.
type Future struct {
	g       *Group
	label   string
	exec    func(context.Context) (v any, computed bool, err error)
	claimed atomic.Bool
	ready   chan struct{}
	val     any
	err     error
}

// NewGroup starts an empty group; a nil ctx means context.Background().
func (p *Pool) NewGroup(ctx context.Context) *Group {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Group{pool: p, ctx: ctx}
}

// Submit queues a job and returns its Future. Submission order is
// execution order (workers claim the oldest queued job first); callers
// that want largest-first scheduling sort before submitting, as RunAll
// does.
func (g *Group) Submit(j Job) *Future {
	m := j.multi()
	return g.submit(m.Label, func(ctx context.Context) (any, bool, error) { return g.pool.do(ctx, m) })
}

// SubmitMulti queues a MultiJob like Submit. Its Future's value is a
// []any holding one result per signature, in signature order.
func (g *Group) SubmitMulti(m MultiJob) *Future {
	return g.submit(m.label(), func(ctx context.Context) (any, bool, error) {
		vs, computed, err := g.pool.doMulti(ctx, m)
		if err != nil {
			return nil, computed, err
		}
		return vs, computed, nil
	})
}

func (g *Group) submit(label string, exec func(context.Context) (any, bool, error)) *Future {
	f := &Future{g: g, label: label, exec: exec, ready: make(chan struct{})}
	g.mu.Lock()
	g.queue = append(g.queue, f)
	g.total++
	g.mu.Unlock()
	g.spawn()
	return f
}

// spawn starts one queue-draining worker if the pool has a free slot;
// otherwise the queued work waits for a running worker or an inline
// drain (Wait / Future.Get).
func (g *Group) spawn() {
	select {
	case g.pool.sem <- struct{}{}:
	default:
		return
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() { <-g.pool.sem }()
		g.drain()
	}()
}

// next claims the oldest queued future. Once the group is stopped (job
// failure or context cancellation), remaining futures are resolved as
// skipped instead of claimed.
func (g *Group) next() *Future {
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(g.queue) > 0 {
		f := g.queue[0]
		g.queue = g.queue[1:]
		if f.claimed.Swap(true) {
			continue // already executing via Get
		}
		if g.stopped || g.ctx.Err() != nil {
			f.skip(g.ctx)
			continue
		}
		return f
	}
	return nil
}

func (g *Group) drain() {
	for {
		f := g.next()
		if f == nil {
			return
		}
		f.run()
	}
}

// Wait drains the queue on the calling goroutine, blocks until every
// spawned worker finishes, and returns the first job error (nil when all
// jobs succeeded; the context error when the group was canceled).
func (g *Group) Wait() error {
	g.drain()
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cause != nil {
		return g.cause
	}
	return g.ctx.Err()
}

// run executes the future's job (the future must already be claimed).
func (f *Future) run() {
	g := f.g
	t0 := time.Now()
	v, computed, err := f.exec(g.ctx)
	f.val = v
	if err != nil {
		f.err = fmt.Errorf("runner: job %s: %w", f.label, err)
		g.mu.Lock()
		g.stopped = true
		if g.cause == nil {
			g.cause = f.err
		}
		g.mu.Unlock()
	}
	n := g.done.Add(1)
	if computed {
		g.mu.Lock()
		total := g.total
		g.mu.Unlock()
		g.pool.logf("[runner] %d/%d %s (%v)", n, total, f.label, time.Since(t0).Round(time.Millisecond))
	}
	close(f.ready)
}

// skip resolves an unrun future; callers hold g.mu.
func (f *Future) skip(ctx context.Context) {
	if err := ctx.Err(); err != nil {
		f.err = fmt.Errorf("%w: %w", ErrSkipped, err)
	} else {
		f.err = fmt.Errorf("%w after earlier job failure", ErrSkipped)
	}
	close(f.ready)
}

// Get returns the job's result. An unclaimed job executes inline on the
// calling goroutine (so Get before Wait cannot deadlock even on a
// saturated pool); a claimed one is waited for.
func (f *Future) Get() (any, error) {
	if !f.claimed.Swap(true) {
		g := f.g
		g.mu.Lock()
		stopped := g.stopped || g.ctx.Err() != nil
		if stopped {
			f.skip(g.ctx)
		}
		g.mu.Unlock()
		if !stopped {
			f.run()
		}
	}
	<-f.ready
	return f.val, f.err
}

// syncWriter serializes writes; a nil underlying writer discards them.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(b []byte) (int, error) {
	if s.w == nil {
		return len(b), nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(b)
}

func (s *syncWriter) printf(format string, args ...any) {
	if s.w == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(s.w, format+"\n", args...)
}
