package program_test

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"testing"

	"ripple/internal/program"
	"ripple/internal/stats"
	"ripple/internal/workload"
)

// relaidPreserving is WithInjectionsPreservingLayout as a full rewrite:
// deep-clone, place the victims into padding, and lay the text out again.
func relaidPreserving(p *program.Program, plan map[program.BlockID][]uint64) *program.Program {
	q := p.Clone()
	for bid, victims := range plan {
		b := q.Block(bid)
		if b.JIT || b.Kernel || len(victims) == 0 {
			continue
		}
		b.Invalidations = append([]uint64(nil), victims...)
		b.InvalidationsInPadding = true
	}
	q.Layout(p.Base)
	return q
}

// randomPlan plans about one block in k, each with one to three victims
// drawn from the text's lines.
func randomPlan(p *program.Program, rng *stats.RNG, k int) map[program.BlockID][]uint64 {
	plan := map[program.BlockID][]uint64{}
	for i := 0; i < p.NumBlocks(); i++ {
		if rng.Intn(k) != 0 {
			continue
		}
		n := 1 + rng.Intn(3)
		for v := 0; v < n; v++ {
			plan[program.BlockID(i)] = append(plan[program.BlockID(i)], p.Block(program.BlockID(rng.Intn(p.NumBlocks()))).FirstLine())
		}
	}
	return plan
}

func fingerprint(t *testing.T, p *program.Program) string {
	t.Helper()
	fp, err := p.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// savedHash hashes a fresh Save image, bypassing the Fingerprint memo.
func savedHash(t *testing.T, p *program.Program) string {
	t.Helper()
	h := sha256.New()
	if err := p.Save(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// requireSameImage asserts got and want lay out and resolve identically.
func requireSameImage(t *testing.T, got, want *program.Program, rng *stats.RNG) {
	t.Helper()
	if got.NumBlocks() != want.NumBlocks() {
		t.Fatalf("%d blocks, want %d", got.NumBlocks(), want.NumBlocks())
	}
	for i := range want.Blocks {
		if got.Blocks[i].Addr != want.Blocks[i].Addr {
			t.Fatalf("block %d at %#x, want %#x", i, got.Blocks[i].Addr, want.Blocks[i].Addr)
		}
	}
	if got.TotalBytes() != want.TotalBytes() {
		t.Fatalf("text of %d bytes, want %d", got.TotalBytes(), want.TotalBytes())
	}
	span := want.TotalBytes() + 256
	for i := 0; i < 2000; i++ {
		addr := want.Base - 64 + uint64(rng.Intn(int(span)))
		if i%2 == 0 {
			// Every other sample is a block boundary, where the indexes
			// can disagree.
			b := want.Block(program.BlockID(rng.Intn(want.NumBlocks())))
			addr = b.Addr + uint64(i%4/2)*uint64(b.CodeBytes()-1)
		}
		if g, w := got.BlockContaining(addr), want.BlockContaining(addr); g != w {
			t.Fatalf("BlockContaining(%#x) = %d, want %d", addr, g, w)
		}
		g, gok := got.BlockAtEntry(addr)
		w, wok := want.BlockAtEntry(addr)
		if g != w || gok != wok {
			t.Fatalf("BlockAtEntry(%#x) = %d,%v, want %d,%v", addr, g, gok, w, wok)
		}
	}
	if g, w := fingerprint(t, got), fingerprint(t, want); g != w {
		t.Fatalf("fingerprint %s, want %s", g, w)
	}
}

// TestPreservingInjectionMatchesRelayout: on every catalog app and random
// plans, the padding-placed injection equals a hand-written clone +
// Layout, and leaves the parent untouched.
func TestPreservingInjectionMatchesRelayout(t *testing.T) {
	rng := stats.NewRNG(13)
	for _, m := range workload.Catalog() {
		app, err := workload.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		p := app.Prog
		parentFP := savedHash(t, p)
		for _, k := range []int{2, 9, 50} {
			plan := randomPlan(p, rng, k)
			requireSameImage(t, p.WithInjectionsPreservingLayout(plan), relaidPreserving(p, plan), rng)
			// A second plan over the injected image replaces some
			// padding-placed victims: still no byte moves.
			q := p.WithInjectionsPreservingLayout(plan)
			plan2 := randomPlan(q, rng, k)
			requireSameImage(t, q.WithInjectionsPreservingLayout(plan2), relaidPreserving(q, plan2), rng)
		}
		if savedHash(t, p) != parentFP {
			t.Fatalf("%s: injecting changed the parent", m.Name)
		}
	}
}

// TestPreservingInjectionRelaysOutShiftedBlocks: padding-placing a plan on
// a block that already carries shift-placed injections shrinks that
// block, so the text must be laid out again.
func TestPreservingInjectionRelaysOutShiftedBlocks(t *testing.T) {
	rng := stats.NewRNG(5)
	app, err := workload.Build(workload.Catalog()[0])
	if err != nil {
		t.Fatal(err)
	}
	shifted := app.Prog.WithInjections(randomPlan(app.Prog, rng, 5))
	plan := map[program.BlockID][]uint64{}
	for i := range shifted.Blocks {
		if b := &shifted.Blocks[i]; len(b.Invalidations) > 0 {
			plan[b.ID] = []uint64{b.FirstLine()}
			break
		}
	}
	if len(plan) == 0 {
		t.Fatal("no shift-injected block to re-plan")
	}
	got := shifted.WithInjectionsPreservingLayout(plan)
	requireSameImage(t, got, relaidPreserving(shifted, plan), rng)
	if got.TotalBytes() >= shifted.TotalBytes() {
		t.Fatalf("text did not shrink: %d -> %d bytes", shifted.TotalBytes(), got.TotalBytes())
	}
}

// TestFingerprintMemo: Fingerprint is the hash of a fresh Save image, is
// computed once per Layout, and a mutation followed by Layout is seen.
func TestFingerprintMemo(t *testing.T) {
	app, err := workload.Build(workload.Catalog()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&program.Program{Name: "x"}).Fingerprint(); err == nil {
		t.Fatal("fingerprinted a program that was never laid out")
	}
	p := app.Prog.Clone()
	p.Layout(app.Prog.Base)
	before := fingerprint(t, p)
	if want := savedHash(t, p); before != want {
		t.Fatalf("fingerprint %s, want the Save image's %s", before, want)
	}
	p.Blocks[0].Invalidations = []uint64{p.Blocks[1].FirstLine()}
	p.Layout(p.Base)
	after := fingerprint(t, p)
	if after == before || after != savedHash(t, p) {
		t.Fatalf("fingerprint after mutation + Layout: %s (before %s, Save image %s)", after, before, savedHash(t, p))
	}
}

// TestFingerprintConcurrent: goroutines asking one program for its
// fingerprint at once all get the Save image's hash (the race lane
// checks the memo).
func TestFingerprintConcurrent(t *testing.T) {
	app, err := workload.Build(workload.Catalog()[0])
	if err != nil {
		t.Fatal(err)
	}
	p := app.Prog
	want := savedHash(t, p)
	p.Layout(p.Base) // a fresh memo, so the goroutines race to fill it
	var wg sync.WaitGroup
	got := make([]string, 8)
	errs := make([]error, len(got))
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = p.Fingerprint()
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil || got[i] != want {
			t.Fatalf("goroutine %d: %s, %v; want %s", i, got[i], errs[i], want)
		}
	}
}

// TestBlockLinesMatchLines: the line table Layout builds agrees with
// Block.Lines on every block of every catalog app, uninjected and under
// both injection placements.
func TestBlockLinesMatchLines(t *testing.T) {
	rng := stats.NewRNG(3)
	var buf []uint64
	for _, m := range workload.Catalog() {
		app, err := workload.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		plan := randomPlan(app.Prog, rng, 4)
		for _, p := range []*program.Program{app.Prog, app.Prog.WithInjections(plan), app.Prog.WithInjectionsPreservingLayout(plan)} {
			for i := range p.Blocks {
				buf = p.Blocks[i].Lines(buf[:0])
				first, n := p.BlockLines(program.BlockID(i))
				if n != len(buf) || first != buf[0] {
					t.Fatalf("%s block %d: BlockLines = %#x+%d, Lines = %#x", m.Name, i, first, n, buf)
				}
			}
		}
	}
}
