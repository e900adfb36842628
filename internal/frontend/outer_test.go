package frontend

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/cache"
	"ripple/internal/isa"
	"ripple/internal/prefetch"
	"ripple/internal/program"
	"ripple/internal/replacement"
	"ripple/internal/workload"
)

// refHierarchy is the outer hierarchy the snapshot overlays replaced,
// kept as the reference oracle: two private cache.Cache levels under
// replacement.LRU, prewarmed per run by replaying every text line through
// both, and a map of the lines that have missed.
type refHierarchy struct {
	l2, l3 *cache.Cache
	seen   map[uint64]bool
}

func newRefHierarchy(t *testing.T, p Params, prog *program.Program, cold bool) *refHierarchy {
	t.Helper()
	l2, err := cache.New(p.L2, replacement.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	l3, err := cache.New(p.L3, replacement.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	h := &refHierarchy{l2: l2, l3: l3, seen: make(map[uint64]bool)}
	if !cold {
		var buf [16]uint64
		for i := range prog.Blocks {
			for _, l := range prog.Blocks[i].Lines(buf[:0]) {
				ai := cache.AccessInfo{Line: l, Sig: l}
				h.l2.Access(ai)
				h.l3.Access(ai)
			}
		}
	}
	return h
}

func (h *refHierarchy) fill(line uint64, prefetch bool) servedBy {
	ai := cache.AccessInfo{Line: line, Sig: line, Prefetch: prefetch}
	switch {
	case h.l2.Access(ai).Hit:
		return servedL2
	case h.l3.Access(ai).Hit:
		return servedL3
	default:
		return servedMem
	}
}

func (h *refHierarchy) firstMiss(line uint64) bool {
	if h.seen[line] {
		return false
	}
	h.seen[line] = true
	return true
}

// oracleFixture is a finagle-http-shaped program, a trace of it, and a
// plan injecting one victim into every 7th distinct traced block.
type oracleFixture struct {
	prog *program.Program
	tr   []program.BlockID
	plan map[program.BlockID][]uint64
}

func newOracleFixture(t *testing.T, blocks int) oracleFixture {
	t.Helper()
	m, ok := workload.ByName("finagle-http")
	if !ok {
		t.Fatal("finagle-http missing from the catalog")
	}
	app, err := workload.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	f := oracleFixture{prog: app.Prog, tr: app.Trace(0, blocks), plan: map[program.BlockID][]uint64{}}
	for i := 8; i < len(f.tr); i += 7 {
		// The victim is the first line of a block run shortly before: it
		// is often resident, so the hints act.
		f.plan[f.tr[i]] = []uint64{app.Prog.Block(f.tr[i-5]).FirstLine()}
	}
	return f
}

// smallOuterParams shrinks L2 and L3 below the text so both evict during
// the prewarm and during the run.
func smallOuterParams() Params {
	p := DefaultParams()
	p.L2 = cache.Config{SizeBytes: 16 << 10, Ways: 4, LineBytes: 64}
	p.L3 = cache.Config{SizeBytes: 64 << 10, Ways: 8, LineBytes: 64}
	return p
}

// TestOuterHierarchyMatchesReference: the snapshot overlays give results
// identical, field by field, to private prewarmed cache.Cache levels, for
// every policy, prefetcher, hierarchy start, warmup, injection style, and
// an outer geometry smaller than the text.
func TestOuterHierarchyMatchesReference(t *testing.T) {
	f := newOracleFixture(t, 3000)
	targets := []struct {
		name string
		prog *program.Program
	}{
		{"uninjected", f.prog},
		{"preserving", f.prog.WithInjectionsPreservingLayout(f.plan)},
		{"shifted", f.prog.WithInjections(f.plan)},
	}
	if small := smallOuterParams(); f.prog.TotalBytes()/64 <= uint64(small.L2.Sets()*small.L2.Ways) {
		t.Fatal("fixture text fits the small L2; the prewarm would not evict")
	}
	params := []struct {
		name string
		p    Params
	}{{"table2", DefaultParams()}, {"small-outer", smallOuterParams()}}
	runs := 0
	for _, pp := range params {
		for _, tg := range targets {
			for _, pol := range replacement.Names() {
				for _, pf := range []string{"none", "nlp", "fdip"} {
					for _, cold := range []bool{false, true} {
						for _, warm := range []int{0, 1000} {
							name := fmt.Sprintf("%s/%s/%s/%s/cold=%v/warm=%d", pp.name, tg.name, pol, pf, cold, warm)
							opts := func() Options {
								p, err := replacement.New(pol)
								if err != nil {
									t.Fatal(err)
								}
								fp, err := prefetch.New(pf, tg.prog)
								if err != nil {
									t.Fatal(err)
								}
								return Options{
									Policy: p, Prefetcher: fp, ColdHierarchy: cold, WarmupBlocks: warm,
									MeasureAccuracy: warm > 0 && pol == "lru",
								}
							}
							src := blockseq.SliceSource(f.tr)
							got, err := Run(pp.p, tg.prog, src, opts())
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							want, err := runWith(pp.p, tg.prog, src, opts(), newRefHierarchy(t, pp.p, tg.prog, cold))
							if err != nil {
								t.Fatalf("%s: reference: %v", name, err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s:\n got  %+v\n want %+v", name, got, want)
							}
							runs++
						}
					}
				}
			}
		}
	}
	if runs != 2*3*10*3*2*2 {
		t.Fatalf("compared %d configurations", runs)
	}
}

// hashSnapshot digests every array and clock of a snapshot.
func hashSnapshot(s *snapshot) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, img := range []*levelImage{&s.l2, &s.l3} {
		put(img.clock)
		for _, v := range img.rows {
			put(v)
		}
	}
	return h.Sum64()
}

// TestSnapshotSharedReadOnly: concurrent runs share one snapshot and
// never write it (the race lane checks the concurrency; the digest
// checks the content).
func TestSnapshotSharedReadOnly(t *testing.T) {
	f := newOracleFixture(t, 3000)
	for _, p := range []Params{DefaultParams(), smallOuterParams()} {
		snap := snapshots.get(p, f.prog)
		before := hashSnapshot(snap)
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i, pf := range []string{"none", "fdip"} {
			wg.Add(1)
			go func(i int, pf string) {
				defer wg.Done()
				fp, err := prefetch.New(pf, f.prog)
				if err == nil {
					_, err = Run(p, f.prog, blockseq.SliceSource(f.tr), Options{Prefetcher: fp})
				}
				errs[i] = err
			}(i, pf)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if snapshots.get(p, f.prog) != snap {
			t.Fatal("the runs did not share the cached snapshot")
		}
		if hashSnapshot(snap) != before {
			t.Fatal("a run wrote the shared snapshot")
		}
	}
}

// shiftedLayouts returns n copies of prog, each laid out one line
// further from the base, so every copy has a distinct text.
func shiftedLayouts(prog *program.Program, n int) []*program.Program {
	out := make([]*program.Program, n)
	for i := range out {
		q := prog.Clone()
		q.Layout(prog.Base + uint64(i+1)*64)
		out[i] = q
	}
	return out
}

// TestSnapshotBuiltOnce: concurrent first uses of one text build one
// snapshot, and every caller gets it.
func TestSnapshotBuiltOnce(t *testing.T) {
	prog := shiftedLayouts(newOracleFixture(t, 10).prog, 1)[0]
	p := DefaultParams()
	const callers = 8
	got := make([]*snapshot, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = snapshots.get(p, prog)
		}(i)
	}
	wg.Wait()
	for i, s := range got {
		if s != got[0] {
			t.Fatalf("caller %d got a second build", i)
		}
	}
	snapshots.mu.Lock()
	defer snapshots.mu.Unlock()
	if e := snapshots.entries[0]; e.snap != got[0] || !e.sameText(prog) {
		t.Fatal("snapshot not cached under its text")
	}
}

// TestSnapshotCacheBounded: simulating more distinct layouts than the
// bound keeps at most maxSnapshots snapshots, the most recently built.
func TestSnapshotCacheBounded(t *testing.T) {
	f := newOracleFixture(t, 500)
	p := DefaultParams()
	progs := shiftedLayouts(f.prog, maxSnapshots+3)
	for _, q := range progs {
		if _, err := Run(p, q, blockseq.SliceSource(f.tr), Options{}); err != nil {
			t.Fatal(err)
		}
		snapshots.mu.Lock()
		n := len(snapshots.entries)
		snapshots.mu.Unlock()
		if n > maxSnapshots {
			t.Fatalf("snapshot cache holds %d entries, bound %d", n, maxSnapshots)
		}
	}
	snapshots.mu.Lock()
	defer snapshots.mu.Unlock()
	for i, e := range snapshots.entries {
		if want := progs[len(progs)-1-i]; !e.sameText(want) {
			t.Fatalf("entry %d is not the %d-th most recent layout", i, i+1)
		}
	}
}

// TestLineSetOutsideText: lines outside the text's range are tracked
// too, and so are all lines of a program with no laid-out text.
func TestLineSetOutsideText(t *testing.T) {
	prog := loopProgram(t)
	s := newLineSet(prog)
	lo := isa.LineOf(prog.Base)
	for _, l := range []uint64{lo, lo + 4, lo + 2, lo - 1, lo + 64, 1 << 40} {
		if !s.add(l) {
			t.Fatalf("line %d reported seen on first add", l)
		}
		if s.add(l) {
			t.Fatalf("line %d reported new on second add", l)
		}
	}
	if len(s.other) != 3 {
		t.Fatalf("%d lines outside the text, want 3", len(s.other))
	}
	empty := newLineSet(&program.Program{})
	if !empty.add(5) || empty.add(5) {
		t.Fatal("empty-text set mistracks")
	}
}
