package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type intRec struct {
	N int
}

func intJob(sig string, cost float64, fn func() (int, error)) Job {
	return NewJob(sig, sig, cost, func(context.Context) (*intRec, error) {
		n, err := fn()
		if err != nil {
			return nil, err
		}
		return &intRec{N: n}, nil
	})
}

func TestDoComputesOnceAndMemoizes(t *testing.T) {
	p := New(Options{Workers: 4})
	var runs atomic.Int64
	j := intJob("a", 1, func() (int, error) { runs.Add(1); return 42, nil })
	for i := 0; i < 3; i++ {
		v, err := p.Do(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		if got := v.(*intRec).N; got != 42 {
			t.Fatalf("result = %d", got)
		}
	}
	if runs.Load() != 1 {
		t.Fatalf("job ran %d times", runs.Load())
	}
	st := p.Stats()
	if st.Computed != 1 || st.MemHits != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDoCoalescesConcurrentCalls(t *testing.T) {
	p := New(Options{Workers: 8})
	var runs atomic.Int64
	release := make(chan struct{})
	j := NewJob("slow", "slow", 1, func(context.Context) (*intRec, error) {
		runs.Add(1)
		<-release
		return &intRec{N: 7}, nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := p.Do(context.Background(), j)
			if err != nil || v.(*intRec).N != 7 {
				t.Errorf("Do = %v, %v", v, err)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("job ran %d times under concurrency", runs.Load())
	}
}

func TestRunAllLargestFirst(t *testing.T) {
	p := New(Options{Workers: 1})
	// With the slot held, RunAll's own goroutine is the only executor, so
	// execution order is the scheduling order.
	defer holdSlot(t, p)()
	var mu sync.Mutex
	var order []string
	mk := func(sig string, cost float64) Job {
		return intJob(sig, cost, func() (int, error) {
			mu.Lock()
			order = append(order, sig)
			mu.Unlock()
			return 0, nil
		})
	}
	jobs := []Job{mk("small", 1), mk("big", 100), mk("mid", 10), mk("big", 100)}
	if err := p.RunAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	want := []string{"big", "mid", "small"} // dedup + cost-descending
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunAllReportsJobError(t *testing.T) {
	p := New(Options{Workers: 2})
	boom := errors.New("boom")
	jobs := []Job{
		intJob("ok", 1, func() (int, error) { return 1, nil }),
		intJob("bad", 2, func() (int, error) { return 0, boom }),
	}
	err := p.RunAll(context.Background(), jobs)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("RunAll error = %v", err)
	}
	if p.Stats().Errors != 1 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

func TestPanicCapturedAsError(t *testing.T) {
	p := New(Options{Workers: 1})
	j := intJob("panics", 1, func() (int, error) { panic("kaboom") })
	_, err := p.Do(context.Background(), j)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not captured: %v", err)
	}
}

func TestInvalidJobRejected(t *testing.T) {
	p := New(Options{Workers: 1})
	if _, err := p.Do(context.Background(), Job{}); err == nil {
		t.Fatal("empty job accepted")
	}
}

// TestCancellationDrainsWorkers cancels a batch mid-run: pending jobs
// must be skipped, RunAll must return promptly with the context error,
// and no worker goroutine may leak.
func TestCancellationDrainsWorkers(t *testing.T) {
	p := New(Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 16)
	var ran atomic.Int64
	var jobs []Job
	for i := 0; i < 16; i++ {
		sig := fmt.Sprintf("job-%02d", i)
		jobs = append(jobs, NewJob(sig, sig, 1, func(ctx context.Context) (*intRec, error) {
			ran.Add(1)
			started <- struct{}{}
			<-ctx.Done() // a cancellation-aware job unblocks on cancel
			return nil, ctx.Err()
		}))
	}
	before := runtime.NumGoroutine()
	errc := make(chan error, 1)
	go func() { errc <- p.RunAll(ctx, jobs) }()
	<-started // at least one job is running
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunAll after cancel = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunAll did not return after cancellation")
	}
	if n := ran.Load(); n >= 16 {
		t.Fatalf("all %d jobs ran despite cancellation", n)
	}
	// Workers must drain: goroutine count returns to (about) the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, g)
	}
	// A canceled attempt must not poison the signature for later retries.
	v, err := p.Do(context.Background(), intJob("job-00", 1, func() (int, error) { return 5, nil }))
	if err != nil || v.(*intRec).N != 5 {
		t.Fatalf("retry after cancel = %v, %v", v, err)
	}
}

// TestRunAllRunsJobsConcurrently proves the batch actually fans out:
// four jobs each block until all four have started, which can only
// complete if four workers run them at once. (This verifies scheduling
// concurrency without requiring multiple CPU cores.)
func TestRunAllRunsJobsConcurrently(t *testing.T) {
	p := New(Options{Workers: 4})
	var wait sync.WaitGroup
	wait.Add(4)
	var jobs []Job
	for i := 0; i < 4; i++ {
		sig := fmt.Sprintf("conc-%d", i)
		jobs = append(jobs, NewJob(sig, sig, 1, func(context.Context) (*intRec, error) {
			wait.Done()
			wait.Wait() // blocks until all four jobs are in flight
			return &intRec{}, nil
		}))
	}
	done := make(chan error, 1)
	go func() { done <- p.RunAll(context.Background(), jobs) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("jobs never ran concurrently (batch deadlocked)")
	}
}

func TestSeedIsStableAndSignatureDependent(t *testing.T) {
	if Seed("x") != Seed("x") {
		t.Fatal("Seed not deterministic")
	}
	if Seed("x") == Seed("y") {
		t.Fatal("distinct signatures share a seed")
	}
}

func TestRunAllEmptyAndNilLog(t *testing.T) {
	p := New(Options{})
	if err := p.RunAll(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if p.Workers() < 1 {
		t.Fatalf("workers = %d", p.Workers())
	}
	if _, err := p.LogWriter().Write([]byte("discarded")); err != nil {
		t.Fatal(err)
	}
}
