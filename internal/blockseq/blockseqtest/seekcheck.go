package blockseqtest

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/program"
)

// TestSourceSeek asserts the blockseq.Seeker contract against a source
// whose passes implement it: seeking to n then draining yields exactly
// what skipping n blocks of a plain pass yields; backward and repeated
// seeks work; an out-of-range seek errors without moving the pass.
func TestSourceSeek(t *testing.T, open func(t *testing.T) blockseq.Source) {
	t.Helper()

	seeker := func(t *testing.T, src blockseq.Source) (blockseq.Seq, blockseq.Seeker) {
		t.Helper()
		seq := src.Open()
		sk, ok := seq.(blockseq.Seeker)
		if !ok {
			t.Fatalf("pass (%T) does not implement blockseq.Seeker", seq)
		}
		return seq, sk
	}

	t.Run("seek-equals-skip", func(t *testing.T) {
		src := open(t)
		ref := mustCollect(t, src)
		for _, n := range seekPoints(len(ref)) {
			seq, sk := seeker(t, src)
			if err := sk.SeekBlock(n); err != nil {
				t.Fatalf("SeekBlock(%d): %v", n, err)
			}
			got := drain(t, seq)
			requireEqual(t, ref[n:], got, "seek to %d", n)
		}
	})

	t.Run("seek-backward", func(t *testing.T) {
		src := open(t)
		ref := mustCollect(t, src)
		if len(ref) < 3 {
			t.Skip("source too short for a backward seek")
		}
		seq, sk := seeker(t, src)
		for i := 0; i < 2*len(ref)/3; i++ {
			if _, ok := seq.Next(); !ok {
				t.Fatalf("pass ended early at block %d", i)
			}
		}
		back := len(ref) / 3
		if err := sk.SeekBlock(back); err != nil {
			t.Fatalf("backward SeekBlock(%d): %v", back, err)
		}
		requireEqual(t, ref[back:], drain(t, seq), "backward seek to %d", back)
	})

	t.Run("reseek", func(t *testing.T) {
		src := open(t)
		ref := mustCollect(t, src)
		if len(ref) < 4 {
			t.Skip("source too short to re-seek")
		}
		seq, sk := seeker(t, src)
		first, second := len(ref)/4, 3*len(ref)/4
		if err := sk.SeekBlock(first); err != nil {
			t.Fatalf("SeekBlock(%d): %v", first, err)
		}
		if bid, ok := seq.Next(); !ok || bid != ref[first] {
			t.Fatalf("after seek to %d, Next = (%d, %t), want (%d, true)", first, bid, ok, ref[first])
		}
		if err := sk.SeekBlock(second); err != nil {
			t.Fatalf("SeekBlock(%d): %v", second, err)
		}
		requireEqual(t, ref[second:], drain(t, seq), "re-seek to %d", second)
	})

	t.Run("seek-after-exhaustion", func(t *testing.T) {
		src := open(t)
		ref := mustCollect(t, src)
		seq, sk := seeker(t, src)
		drain(t, seq)
		n := len(ref) / 2
		if err := sk.SeekBlock(n); err != nil {
			t.Fatalf("SeekBlock(%d) after exhaustion: %v", n, err)
		}
		requireEqual(t, ref[n:], drain(t, seq), "seek to %d after exhaustion", n)
	})

	t.Run("out-of-range", func(t *testing.T) {
		src := open(t)
		ref := mustCollect(t, src)
		seq, sk := seeker(t, src)
		// Read a prefix so a botched seek would visibly move the pass.
		pre := len(ref) / 3
		for i := 0; i < pre; i++ {
			if _, ok := seq.Next(); !ok {
				t.Fatalf("pass ended early at block %d", i)
			}
		}
		if err := sk.SeekBlock(-1); err == nil {
			t.Fatal("SeekBlock(-1) succeeded")
		}
		if err := sk.SeekBlock(len(ref) + 1); err == nil {
			t.Fatalf("SeekBlock(%d) past the end succeeded", len(ref)+1)
		}
		// A failed range check must leave the position untouched.
		requireEqual(t, ref[pre:], drain(t, seq), "position after rejected seeks")
	})
}

// TestSourceCheckpoint asserts the blockseq.Checkpointer contract
// against a source whose passes implement it: a mark taken mid-pass
// restores onto a fresh pass byte-identically (and repeatably), marks at
// the start and end round-trip, and a garbage mark is rejected.
func TestSourceCheckpoint(t *testing.T, open func(t *testing.T) blockseq.Source) {
	t.Helper()

	ckpt := func(t *testing.T, src blockseq.Source) (blockseq.Seq, blockseq.Checkpointer) {
		t.Helper()
		seq := src.Open()
		cp, ok := seq.(blockseq.Checkpointer)
		if !ok {
			t.Fatalf("pass (%T) does not implement blockseq.Checkpointer", seq)
		}
		return seq, cp
	}

	t.Run("roundtrip", func(t *testing.T) {
		src := open(t)
		ref := mustCollect(t, src)
		for _, n := range seekPoints(len(ref)) {
			seq, cp := ckpt(t, src)
			for i := 0; i < n; i++ {
				if _, ok := seq.Next(); !ok {
					t.Fatalf("pass ended early at block %d", i)
				}
			}
			mark, err := cp.Checkpoint()
			if err != nil {
				t.Fatalf("Checkpoint at %d: %v", n, err)
			}
			tail := drain(t, seq) // the checkpointed pass keeps going
			requireEqual(t, ref[n:], tail, "checkpointed pass tail at %d", n)
			// Restoring a fresh pass — twice — replays the identical tail.
			for round := 1; round <= 2; round++ {
				fresh, fcp := ckpt(t, src)
				if err := fcp.Restore(mark); err != nil {
					t.Fatalf("Restore (round %d) of mark at %d: %v", round, n, err)
				}
				requireEqual(t, tail, drain(t, fresh), "restored pass at %d, round %d", n, round)
			}
		}
	})

	t.Run("resume-source", func(t *testing.T) {
		src := open(t)
		ref := mustCollect(t, src)
		n := len(ref) / 2
		seq, cp := ckpt(t, src)
		for i := 0; i < n; i++ {
			if _, ok := seq.Next(); !ok {
				t.Fatalf("pass ended early at block %d", i)
			}
		}
		mark, err := cp.Checkpoint()
		if err != nil {
			t.Fatalf("Checkpoint at %d: %v", n, err)
		}
		resumed := blockseq.Resume(src, mark)
		for pass := 1; pass <= 2; pass++ {
			got := mustCollect(t, resumed)
			requireEqual(t, ref[n:], got, "Resume pass %d", pass)
		}
	})

	t.Run("garbage-mark", func(t *testing.T) {
		src := open(t)
		_, cp := ckpt(t, src)
		for _, m := range []blockseq.Mark{nil, {0xff}} {
			if err := cp.Restore(m); err == nil {
				t.Fatalf("Restore(%v) succeeded; want an error", []byte(m))
			}
		}
	})
}

// TestSourceCheckpointDisk asserts that checkpoint marks survive
// serialization across process boundaries: a mark taken mid-pass is
// written to disk as raw bytes, read back, and restored onto a fresh
// pass — byte-identical tails. A mark that only works in the process
// that minted it (hidden pointers, in-memory side tables) fails here
// even though it passes TestSourceCheckpoint.
func TestSourceCheckpointDisk(t *testing.T, open func(t *testing.T) blockseq.Source) {
	t.Helper()
	t.Run("disk-roundtrip", func(t *testing.T) {
		src := open(t)
		ref := mustCollect(t, src)
		dir := t.TempDir()
		for i, n := range seekPoints(len(ref)) {
			seq := src.Open()
			cp, ok := seq.(blockseq.Checkpointer)
			if !ok {
				t.Fatalf("pass (%T) does not implement blockseq.Checkpointer", seq)
			}
			for j := 0; j < n; j++ {
				if _, ok := seq.Next(); !ok {
					t.Fatalf("pass ended early at block %d", j)
				}
			}
			mark, err := cp.Checkpoint()
			if err != nil {
				t.Fatalf("Checkpoint at %d: %v", n, err)
			}
			path := filepath.Join(dir, fmt.Sprintf("mark-%d", i))
			if err := os.WriteFile(path, mark, 0o644); err != nil {
				t.Fatal(err)
			}
			loaded, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Restore from the disk bytes in a fresh pass of a freshly
			// opened source — nothing shared with the minting pass.
			fresh := open(t).Open()
			fcp, ok := fresh.(blockseq.Checkpointer)
			if !ok {
				t.Fatalf("fresh pass (%T) does not implement blockseq.Checkpointer", fresh)
			}
			if err := fcp.Restore(blockseq.Mark(loaded)); err != nil {
				t.Fatalf("Restore of disk mark at %d: %v", n, err)
			}
			requireEqual(t, ref[n:], drain(t, fresh), "disk-restored pass at %d", n)
		}
	})
}

// seekPoints samples positions across a stream of n blocks, always
// including both ends.
func seekPoints(n int) []int {
	pts := []int{0}
	for _, p := range []int{n / 4, n / 2, 3 * n / 4, n - 1, n} {
		if p > 0 && p != pts[len(pts)-1] {
			pts = append(pts, p)
		}
	}
	return pts
}

// drain reads a pass to exhaustion, failing the test on a pass error.
func drain(t *testing.T, seq blockseq.Seq) []program.BlockID {
	t.Helper()
	var out []program.BlockID
	for {
		bid, ok := seq.Next()
		if !ok {
			if err := seq.Err(); err != nil {
				t.Fatalf("pass failed: %v", err)
			}
			return out
		}
		out = append(out, bid)
	}
}

// CountingSource wraps a source and counts every block its passes yield
// and every pass opened, forwarding LenHint and the Seeker/Checkpointer capabilities of the
// wrapped passes. Perf tests wrap a source with it to assert how much
// replay work a consumer actually performed; wrapping it in
// OpaqueSource hides the capabilities to exercise fallback paths.
type CountingSource struct {
	Src   blockseq.Source
	n     atomic.Uint64
	opens atomic.Uint64
}

// Count wraps src in a CountingSource.
func Count(src blockseq.Source) *CountingSource { return &CountingSource{Src: src} }

// Blocks returns the total blocks yielded across all passes so far.
func (c *CountingSource) Blocks() uint64 { return c.n.Load() }

// Opens returns the number of passes opened so far.
func (c *CountingSource) Opens() uint64 { return c.opens.Load() }

// Open implements blockseq.Source.
func (c *CountingSource) Open() blockseq.Seq {
	c.opens.Add(1)
	return &countingSeq{seq: c.Src.Open(), c: c}
}

// LenHint forwards the wrapped source's hint.
func (c *CountingSource) LenHint() (int, bool) { return blockseq.LenHint(c.Src) }

type countingSeq struct {
	seq blockseq.Seq
	c   *CountingSource
}

func (s *countingSeq) Next() (program.BlockID, bool) {
	bid, ok := s.seq.Next()
	if ok {
		s.c.n.Add(1)
	}
	return bid, ok
}

func (s *countingSeq) Err() error { return s.seq.Err() }

// SeekBlock forwards to the wrapped pass when it can seek.
func (s *countingSeq) SeekBlock(n int) error {
	if sk, ok := s.seq.(blockseq.Seeker); ok {
		return sk.SeekBlock(n)
	}
	return blockseq.ErrNotSeekable
}

// Checkpoint forwards to the wrapped pass when it checkpoints.
func (s *countingSeq) Checkpoint() (blockseq.Mark, error) {
	if cp, ok := s.seq.(blockseq.Checkpointer); ok {
		return cp.Checkpoint()
	}
	return nil, blockseq.ErrNoCheckpoint
}

// Restore forwards to the wrapped pass when it checkpoints.
func (s *countingSeq) Restore(m blockseq.Mark) error {
	if cp, ok := s.seq.(blockseq.Checkpointer); ok {
		return cp.Restore(m)
	}
	return blockseq.ErrNoCheckpoint
}

// OpaqueSource strips every optional capability from a source: its
// passes expose only Next/Err. Byte-identity tests run a consumer over
// the capable and the opaque form of the same source to prove the
// accelerated and fallback paths agree.
type OpaqueSource struct{ Src blockseq.Source }

// Open implements blockseq.Source.
func (o OpaqueSource) Open() blockseq.Seq { return opaqueSeq{seq: o.Src.Open()} }

type opaqueSeq struct{ seq blockseq.Seq }

func (s opaqueSeq) Next() (program.BlockID, bool) { return s.seq.Next() }
func (s opaqueSeq) Err() error                    { return s.seq.Err() }
