package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ripple/internal/blockseq"
	"ripple/internal/blockseq/blockseqtest"
	"ripple/internal/fault"
	"ripple/internal/program"
)

// TestParallelFileSourceConformance runs the full shared kit — replay,
// seek, checkpoint, disk checkpoint — against the parallel source.
func TestParallelFileSourceConformance(t *testing.T) {
	path, _, prog := writeTrace(t, t.TempDir(), 256)
	open := func(*testing.T) blockseq.Source {
		return ParallelFileSource(path, prog, 4)
	}
	blockseqtest.TestSource(t, open)
	blockseqtest.TestSourceSeek(t, open)
	blockseqtest.TestSourceCheckpoint(t, open)
	blockseqtest.TestSourceCheckpointDisk(t, open)
}

// TestParallelSourceFaultConformance: injected source faults must not
// poison later parallel passes.
func TestParallelSourceFaultConformance(t *testing.T) {
	path, _, prog := writeTrace(t, t.TempDir(), 256)
	blockseqtest.TestSourceFault(t, func(*testing.T) blockseq.Source {
		return ParallelFileSource(path, prog, 3)
	})
}

// TestParallelMatchesSerialClean is the core bit-identity lock: over a
// clean sync-pointed trace, the serial ReadAt path, the mmap path, and
// parallel decode at several widths must produce the identical block
// stream.
func TestParallelMatchesSerialClean(t *testing.T) {
	app := tinyApp(t)
	tr := app.Trace(0, 8000)
	raw := encodedSync(t, app.Prog, tr, 256)
	path := filepath.Join(t.TempDir(), "trace.pt")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	want, err := blockseq.Collect(FileSourceOptions(path, app.Prog, FileOptions{NoMmap: true}))
	if err != nil {
		t.Fatalf("serial ReadAt pass: %v", err)
	}
	if len(want) != len(tr) {
		t.Fatalf("serial pass decoded %d blocks, want %d", len(want), len(tr))
	}
	check := func(name string, src blockseq.Source) {
		t.Helper()
		got, err := blockseq.Collect(src)
		if err != nil {
			t.Fatalf("%s pass: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s decoded %d blocks, serial %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s diverges from serial at block %d", name, i)
			}
		}
	}
	check("mmap", FileSource(path, app.Prog))
	for _, decoders := range []int{2, 4, 8} {
		check("parallel", ParallelFileSource(path, app.Prog, decoders))
	}
}

// TestParallelMatchesSerialDamagedRecovery: over a damaged stream in
// recovery mode, the parallel source must produce the identical block
// sequence AND the identical damage report the serial recovery decode
// produces.
func TestParallelMatchesSerialDamagedRecovery(t *testing.T) {
	const every = 256
	app := tinyApp(t)
	blocks := app.Trace(0, 6000)
	data, stats := encodeSync(t, app.Prog, blocks, every)
	if stats.Syncs < 4 {
		t.Fatalf("need at least 4 sync points, got %d", stats.Syncs)
	}
	offs := syncOffsets(t, data, stats.Syncs)

	// Clobber sync 2's TIP and scribble inside its region, like
	// TestRecoveryResumesAtNextSync.
	damaged := append([]byte(nil), data...)
	damaged[offs[2]+len(psbMagic)] = 0x7F
	damaged, _ = fault.NewInjector(99).Overwrite(damaged, 8, offs[2]+len(psbMagic)+1, offs[3])

	serialSrc := RecoverBytesSource(damaged, app.Prog)
	want, err := blockseq.Collect(serialSrc)
	if err != nil {
		t.Fatalf("serial recovery pass: %v", err)
	}
	wantRep, ok := serialSrc.(Reporting).DecodeReport()
	if !ok {
		t.Fatal("serial recovery pass published no report")
	}
	if !wantRep.Damaged() {
		t.Fatal("seeded damage not detected by the serial decode")
	}

	parSrc := parallelBytesSource(damaged, app.Prog, true, 4)
	got, err := blockseq.Collect(parSrc)
	if err != nil {
		t.Fatalf("parallel recovery pass: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("parallel recovered %d blocks, serial %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parallel recovery diverges at block %d", i)
		}
	}
	gotRep, ok := parSrc.(Reporting).DecodeReport()
	if !ok {
		t.Fatal("parallel recovery pass published no report")
	}
	if gotRep.Declared != wantRep.Declared || gotRep.Decoded != wantRep.Decoded {
		t.Fatalf("report accounting differs: parallel %+v, serial %+v", gotRep, wantRep)
	}
	if len(gotRep.Regions) != len(wantRep.Regions) {
		t.Fatalf("parallel reports %d damage regions, serial %d", len(gotRep.Regions), len(wantRep.Regions))
	}
	for i := range wantRep.Regions {
		if gotRep.Regions[i] != wantRep.Regions[i] {
			t.Fatalf("damage region %d differs: parallel %+v, serial %+v", i, gotRep.Regions[i], wantRep.Regions[i])
		}
	}
	if gotRep.Decoded+gotRep.BlocksLost() != gotRep.Declared {
		t.Fatalf("inconsistent parallel accounting: %+v", gotRep)
	}
}

// TestParallelMatchesSerialStrictError: strict-mode failures must be the
// byte-identical error the serial decode produces, offset and all.
func TestParallelMatchesSerialStrictError(t *testing.T) {
	app := tinyApp(t)
	data := encodedSync(t, app.Prog, app.Trace(0, 6000), 256)

	mutate := map[string]func([]byte) []byte{
		"truncated-tail": func(d []byte) []byte { return d[:len(d)*3/4] },
		"clobbered-packet": func(d []byte) []byte {
			out := append([]byte(nil), d...)
			out[len(out)/2] ^= 0x5A
			return out
		},
	}
	for name, fn := range mutate {
		t.Run(name, func(t *testing.T) {
			bad := fn(data)
			_, serialErr := blockseq.Collect(BytesSource(bad, app.Prog))
			_, parErr := blockseq.Collect(parallelBytesSource(bad, app.Prog, false, 4))
			if (serialErr == nil) != (parErr == nil) {
				t.Fatalf("serial err = %v, parallel err = %v", serialErr, parErr)
			}
			if serialErr != nil && serialErr.Error() != parErr.Error() {
				t.Fatalf("error text differs:\n  serial:   %v\n  parallel: %v", serialErr, parErr)
			}
		})
	}
}

// TestParallelNoSyncPointsFallsBack: a stream encoded without sync
// points has a single region; the parallel source must transparently
// decode it serially and still replay exactly.
func TestParallelNoSyncPointsFallsBack(t *testing.T) {
	app := tinyApp(t)
	tr := app.Trace(0, 3000)
	raw := encoded(t, app.Prog, tr) // no sync points
	path := filepath.Join(t.TempDir(), "trace.pt")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	src := ParallelFileSource(path, app.Prog, 4)
	for pass := 0; pass < 2; pass++ {
		got, err := blockseq.Collect(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tr) {
			t.Fatalf("pass %d decoded %d blocks, want %d", pass, len(got), len(tr))
		}
		for i := range tr {
			if got[i] != tr[i] {
				t.Fatalf("pass %d diverges at %d", pass, i)
			}
		}
	}
}

// TestParallelConcurrentRegionDecoders proves real decode concurrency
// by rendezvous, not wall clock (CI may have a single CPU): with 4
// decoders configured, 4 region workers must simultaneously occupy
// decode slots before any is released.
func TestParallelConcurrentRegionDecoders(t *testing.T) {
	const workers = 4
	path, tr, prog := writeTrace(t, t.TempDir(), 64)

	arrived := make(chan struct{}, 1024)
	release := make(chan struct{})
	src := ParallelFileSource(path, prog, workers)
	ps, ok := src.(*parallelSource)
	if !ok {
		t.Fatalf("ParallelFileSource returned %T, want *parallelSource", src)
	}
	// Only this source's workers count: ones a previous test abandoned
	// hold slots on their own source's semaphore.
	ps.testGate = func() {
		arrived <- struct{}{}
		<-release
	}
	type result struct {
		blocks []program.BlockID
		err    error
	}
	done := make(chan result, 1)
	go func() {
		blocks, err := blockseq.Collect(src)
		done <- result{blocks, err}
	}()

	// All four slots must fill while the gate is shut.
	deadline := time.After(30 * time.Second)
	for i := 0; i < workers; i++ {
		select {
		case <-arrived:
		case <-deadline:
			t.Fatalf("only %d of %d region decoders arrived at the rendezvous", i, workers)
		case r := <-done:
			t.Fatalf("pass finished (err=%v) before %d decoders ran concurrently", r.err, workers)
		}
	}
	close(release)

	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.blocks) != len(tr) {
		t.Fatalf("decoded %d blocks, want %d", len(r.blocks), len(tr))
	}
	for i := range tr {
		if r.blocks[i] != tr[i] {
			t.Fatalf("diverges at %d", i)
		}
	}
}

// TestParallelSeekMatchesIndexed: the parallel pass's Seeker/Checkpointer
// marks are plain block ordinals, interchangeable with indexed marks.
func TestParallelMarkInterchange(t *testing.T) {
	path, tr, prog := writeTrace(t, t.TempDir(), 256)
	par := ParallelFileSource(path, prog, 3)
	idx, err := IndexedFileSource(path, prog)
	if err != nil {
		t.Fatal(err)
	}
	seq := par.Open().(blockseq.Checkpointer)
	mid := len(tr) / 2
	if err := seq.(blockseq.Seeker).SeekBlock(mid); err != nil {
		t.Fatal(err)
	}
	mark, err := seq.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	other := idx.Open().(blockseq.Checkpointer)
	if err := other.Restore(mark); err != nil {
		t.Fatalf("indexed pass rejected a parallel mark: %v", err)
	}
	id, ok := other.(blockseq.Seq).Next()
	if !ok || id != tr[mid] {
		t.Fatalf("restored indexed pass at block %d yields %d, want %d", mid, id, tr[mid])
	}
}

// TestMmapFileSourceIdentity pins the mmap fast path against the ReadAt
// fallback byte-for-byte, including the recovery report on damaged
// input.
func TestMmapFileSourceIdentity(t *testing.T) {
	app := tinyApp(t)
	blocks := app.Trace(0, 6000)
	data, stats := encodeSync(t, app.Prog, blocks, 256)
	offs := syncOffsets(t, data, stats.Syncs)
	damaged := append([]byte(nil), data...)
	damaged[offs[1]+len(psbMagic)] = 0x7F

	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.pt")
	dmg := filepath.Join(dir, "damaged.pt")
	for p, b := range map[string][]byte{clean: data, dmg: damaged} {
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("clean", func(t *testing.T) {
		want, err := blockseq.Collect(FileSourceOptions(clean, app.Prog, FileOptions{NoMmap: true}))
		if err != nil {
			t.Fatal(err)
		}
		got, err := blockseq.Collect(FileSource(clean, app.Prog))
		if err != nil {
			t.Fatal(err)
		}
		if !equalBlocks(want, got) {
			t.Fatal("mmap decode diverges from ReadAt decode")
		}
	})
	t.Run("damaged-recovery", func(t *testing.T) {
		serial := FileSourceOptions(dmg, app.Prog, FileOptions{NoMmap: true, Recover: true})
		want, err := blockseq.Collect(serial)
		if err != nil {
			t.Fatal(err)
		}
		mapped := RecoverFileSource(dmg, app.Prog)
		got, err := blockseq.Collect(mapped)
		if err != nil {
			t.Fatal(err)
		}
		if !equalBlocks(want, got) {
			t.Fatal("mmap recovery diverges from ReadAt recovery")
		}
		wantRep, _ := serial.(Reporting).DecodeReport()
		gotRep, ok := mapped.(Reporting).DecodeReport()
		if !ok {
			t.Fatal("mmap recovery pass published no report")
		}
		if wantRep.Declared != gotRep.Declared || wantRep.Decoded != gotRep.Decoded ||
			len(wantRep.Regions) != len(gotRep.Regions) {
			t.Fatalf("reports differ: mmap %+v, ReadAt %+v", gotRep, wantRep)
		}
	})
}

func equalBlocks(a, b []program.BlockID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzDecodeParallel drives the parallel fan-in with arbitrary bytes:
// whatever the input — clean, damaged, or garbage — the parallel source
// must reproduce the serial decode exactly, in both strict and recovery
// mode: same blocks, same error text, same damage report.
func FuzzDecodeParallel(f *testing.F) {
	app, err := buildFuzzApp()
	if err != nil {
		f.Fatal(err)
	}
	var clean bytes.Buffer
	if _, err := EncodeSourceSync(&clean, app.Prog, blockseq.SliceSource(app.Trace(0, 800)), 64); err != nil {
		f.Fatal(err)
	}
	f.Add(clean.Bytes(), true)
	dmg := append([]byte(nil), clean.Bytes()...)
	if len(dmg) > 40 {
		dmg[len(dmg)/3] ^= 0xA5
	}
	f.Add(dmg, true)
	f.Add(dmg, false)
	f.Add([]byte{}, false)
	f.Add(append([]byte{pktPSB, 0x20}, psbMagic[:]...), true)

	f.Fuzz(func(t *testing.T, data []byte, rec bool) {
		var serial blockseq.Source
		if rec {
			serial = RecoverBytesSource(data, app.Prog)
		} else {
			serial = BytesSource(data, app.Prog)
		}
		want, wantErr := blockseq.Collect(serial)
		par := parallelBytesSource(data, app.Prog, rec, 3)
		got, gotErr := blockseq.Collect(par)

		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("serial err = %v, parallel err = %v", wantErr, gotErr)
		}
		if wantErr != nil && wantErr.Error() != gotErr.Error() {
			t.Fatalf("error text differs:\n  serial:   %v\n  parallel: %v", wantErr, gotErr)
		}
		if len(want) != len(got) {
			t.Fatalf("parallel decoded %d blocks, serial %d", len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("parallel diverges from serial at block %d", i)
			}
		}
		if rec && wantErr == nil {
			wantRep, wok := serial.(Reporting).DecodeReport()
			gotRep, gok := par.(Reporting).DecodeReport()
			if wok != gok {
				t.Fatalf("report availability differs: serial %t, parallel %t", wok, gok)
			}
			if wok {
				if wantRep.Declared != gotRep.Declared || wantRep.Decoded != gotRep.Decoded ||
					len(wantRep.Regions) != len(gotRep.Regions) {
					t.Fatalf("reports differ:\n  serial:   %+v\n  parallel: %+v", wantRep, gotRep)
				}
				for i := range wantRep.Regions {
					if wantRep.Regions[i] != gotRep.Regions[i] {
						t.Fatalf("damage region %d differs: serial %+v, parallel %+v",
							i, wantRep.Regions[i], gotRep.Regions[i])
					}
				}
			}
		}
	})
}
