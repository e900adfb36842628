package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// runMultiJob runs one multi-job in a group of its own.
func runMultiJob(ctx context.Context, p *Pool, m MultiJob) ([]any, error) {
	v, err := p.NewGroup(ctx).SubmitMulti(m).Get()
	if err != nil {
		return nil, err
	}
	return v.([]any), nil
}

// sigValue is the deterministic result every test signature stands for.
func sigValue(sig string) int { return int(Seed(sig) % 1000) }

// multiCounter builds multi-jobs over signatures and counts how often
// each signature is computed.
type multiCounter struct {
	mu     sync.Mutex
	counts map[string]int
	calls  atomic.Int64
}

func newMultiCounter() *multiCounter { return &multiCounter{counts: make(map[string]int)} }

func (c *multiCounter) job(sigs ...string) MultiJob {
	return NewMultiJob(sigs, fmt.Sprint(sigs), float64(len(sigs)), func(_ context.Context, want []int) ([]*intRec, error) {
		c.calls.Add(1)
		out := make([]*intRec, len(want))
		c.mu.Lock()
		defer c.mu.Unlock()
		for k, i := range want {
			c.counts[sigs[i]]++
			out[k] = &intRec{N: sigValue(sigs[i])}
		}
		return out, nil
	})
}

func (c *multiCounter) single(sig string) Job {
	return intJob(sig, 1, func() (int, error) {
		c.mu.Lock()
		c.counts[sig]++
		c.mu.Unlock()
		return sigValue(sig), nil
	})
}

func checkValues(t *testing.T, sigs []string, vs []any) {
	t.Helper()
	if len(vs) != len(sigs) {
		t.Fatalf("%d results for %d signatures", len(vs), len(sigs))
	}
	for i, v := range vs {
		if got := v.(*intRec).N; got != sigValue(sigs[i]) {
			t.Fatalf("result %d (%s) = %d, want %d", i, sigs[i], got, sigValue(sigs[i]))
		}
	}
}

// TestMultiJobSharesPerSignatureCache: a multi-job computes only the
// signatures no earlier call holds, in one body call, and its results
// serve later single jobs and multi-jobs from memory.
func TestMultiJobSharesPerSignatureCache(t *testing.T) {
	p := New(Options{Workers: 2})
	c := newMultiCounter()
	ctx := context.Background()
	if _, err := p.Do(ctx, c.single("b")); err != nil {
		t.Fatal(err)
	}
	sigs := []string{"a", "b", "c", "a"}
	vs, err := runMultiJob(ctx, p, c.job(sigs...))
	if err != nil {
		t.Fatal(err)
	}
	checkValues(t, sigs, vs)
	if want := map[string]int{"a": 1, "b": 1, "c": 1}; !reflect.DeepEqual(c.counts, want) {
		t.Fatalf("computations per signature %v, want %v", c.counts, want)
	}
	if c.calls.Load() != 1 {
		t.Fatalf("body ran %d times, want 1", c.calls.Load())
	}
	if v, err := p.Do(ctx, c.single("c")); err != nil || v.(*intRec).N != sigValue("c") {
		t.Fatalf("single job after multi-job: %v, %v", v, err)
	}
	if _, err := runMultiJob(ctx, p, c.job("c", "a")); err != nil {
		t.Fatal(err)
	}
	if c.calls.Load() != 1 || c.counts["c"] != 1 {
		t.Fatalf("memoized signatures recomputed: %v", c.counts)
	}
	if st := p.Stats(); st.Computed != 3 {
		t.Fatalf("Computed = %d, want 3 (one per signature)", st.Computed)
	}
}

// TestMultiJobStorePerSignature: results persist per signature, so a
// warm store serves a multi-job with zero computation, and a partly warm
// store computes only the missing signatures.
func TestMultiJobStorePerSignature(t *testing.T) {
	dir := t.TempDir()
	open := func() *Pool {
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return New(Options{Workers: 2, Store: st})
	}
	ctx := context.Background()
	c := newMultiCounter()
	if _, err := runMultiJob(ctx, open(), c.job("x", "y")); err != nil {
		t.Fatal(err)
	}
	warm := open()
	sigs := []string{"y", "z", "x"}
	var want []int
	m := NewMultiJob(sigs, "partly warm", 3, func(_ context.Context, w []int) ([]*intRec, error) {
		want = append([]int(nil), w...)
		out := make([]*intRec, len(w))
		for k, i := range w {
			out[k] = &intRec{N: sigValue(sigs[i])}
		}
		return out, nil
	})
	vs, err := runMultiJob(ctx, warm, m)
	if err != nil {
		t.Fatal(err)
	}
	checkValues(t, sigs, vs)
	if !reflect.DeepEqual(want, []int{1}) {
		t.Fatalf("body asked for %v, want [1] (only z is missing)", want)
	}
	if st := warm.Stats(); st.Computed != 1 || st.StoreHits != 2 {
		t.Fatalf("partly warm: computed %d, store hits %d; want 1 and 2", st.Computed, st.StoreHits)
	}
	cold := open()
	if _, err := runMultiJob(ctx, cold, c.job("x", "y", "z")); err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.Computed != 0 || st.StoreHits != 3 {
		t.Fatalf("warm rerun: computed %d, store hits %d; want 0 and 3", st.Computed, st.StoreHits)
	}
}

// TestMultiJobErrorAndRetryAfterCancel: a failing body fails every
// signature it owned; a canceled one leaves them claimable again.
func TestMultiJobErrorAndRetryAfterCancel(t *testing.T) {
	p := New(Options{Workers: 2})
	boom := errors.New("boom")
	bad := NewMultiJob([]string{"e1", "e2"}, "bad", 1, func(context.Context, []int) ([]*intRec, error) { return nil, boom })
	if _, err := runMultiJob(context.Background(), p, bad); !errors.Is(err, boom) {
		t.Fatalf("error %v, want boom", err)
	}
	if _, err := p.Do(context.Background(), intJob("e2", 1, func() (int, error) { return 1, nil })); !errors.Is(err, boom) {
		t.Fatalf("a failed signature must stay failed in-process, got %v", err)
	}
	short := NewMultiJob([]string{"s1"}, "short", 1, func(context.Context, []int) ([]*intRec, error) {
		return []*intRec{}, nil
	})
	if _, err := runMultiJob(context.Background(), p, short); err == nil {
		t.Fatal("a body returning too few results was accepted")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := newMultiCounter()
	if _, err := runMultiJob(ctx, p, c.job("k1", "k2")); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled: %v", err)
	}
	vs, err := runMultiJob(context.Background(), p, c.job("k1", "k2"))
	if err != nil {
		t.Fatal(err)
	}
	checkValues(t, []string{"k1", "k2"}, vs)
	if _, err := runMultiJob(context.Background(), p, MultiJob{}); err == nil {
		t.Fatal("empty multi-job accepted")
	}
}

// TestMultiJobCoordinatesPerSignature: with a coordinating backend, a
// signature another process published is not computed, and every lease
// the job took is resolved Done after its result is published.
func TestMultiJobCoordinatesPerSignature(t *testing.T) {
	fc := newFakeCoord(t)
	fc.publish["p2"] = []byte(`{"N":7}`)
	p := New(Options{Workers: 2, Store: fc})
	c := newMultiCounter()
	vs, err := runMultiJob(context.Background(), p, c.job("p1", "p2", "p3"))
	if err != nil {
		t.Fatal(err)
	}
	if vs[1].(*intRec).N != 7 || c.counts["p2"] != 0 {
		t.Fatalf("published signature recomputed or not served: %v, %v", vs[1], c.counts)
	}
	if fc.grants.Load() != 2 || fc.dones.Load() != 2 || fc.releases.Load() != 0 {
		t.Fatalf("leases: %d granted, %d done, %d released; want 2, 2, 0",
			fc.grants.Load(), fc.dones.Load(), fc.releases.Load())
	}
	if st := p.Stats(); st.Computed != 2 || st.FleetHits != 1 {
		t.Fatalf("computed %d, fleet hits %d; want 2 and 1", st.Computed, st.FleetHits)
	}
	failing := NewMultiJob([]string{"f1", "f2"}, "failing", 1, func(context.Context, []int) ([]*intRec, error) {
		return nil, errors.New("down")
	})
	if _, err := runMultiJob(context.Background(), p, failing); err == nil {
		t.Fatal("failure not reported")
	}
	if fc.releases.Load() != 2 {
		t.Fatalf("failed multi-job released %d leases, want 2", fc.releases.Load())
	}
}

// TestMultiJobConcurrentOverlap: overlapping multi-jobs and single jobs
// submitted concurrently through groups compute every signature exactly
// once and never deadlock on each other's claims.
func TestMultiJobConcurrentOverlap(t *testing.T) {
	p := New(Options{Workers: 4})
	c := newMultiCounter()
	const n = 24
	sig := func(i int) string { return fmt.Sprintf("o%02d", i%n) }
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := p.NewGroup(context.Background())
			var multis []*Future
			var sigSets [][]string
			for k := 0; k < 6; k++ {
				sigs := []string{sig(w + k), sig(w + 3*k + 1), sig(5*w + k + 2)}
				sigSets = append(sigSets, sigs)
				multis = append(multis, g.SubmitMulti(c.job(sigs...)))
				g.Submit(c.single(sig(w*7 + k)))
			}
			if err := g.Wait(); err != nil {
				errs <- err
				return
			}
			for k, f := range multis {
				v, err := f.Get()
				if err != nil {
					errs <- err
					return
				}
				vs := v.([]any)
				for i, s := range sigSets[k] {
					if vs[i].(*intRec).N != sigValue(s) {
						errs <- fmt.Errorf("%s: wrong value", s)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for s, k := range c.counts {
		if k != 1 {
			t.Fatalf("%s computed %d times", s, k)
		}
	}
	if st := p.Stats(); st.Computed != int64(len(c.counts)) {
		t.Fatalf("Computed = %d for %d distinct signatures", st.Computed, len(c.counts))
	}
}

func TestSplit(t *testing.T) {
	for _, tc := range []struct {
		n, parts int
		want     [][]int
	}{
		{0, 4, nil},
		{3, 0, [][]int{{0, 1, 2}}},
		{3, 8, [][]int{{0}, {1}, {2}}},
		{7, 3, [][]int{{0, 3, 6}, {1, 4}, {2, 5}}},
	} {
		if got := Split(tc.n, tc.parts); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Split(%d, %d) = %v, want %v", tc.n, tc.parts, got, tc.want)
		}
	}
}
