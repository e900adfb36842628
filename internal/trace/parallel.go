// Parallel region decode: a PSB sync point resets all decoder state, so
// the spans between sync points ("regions") of a mapped trace are
// independently decodable. ParallelFileSource scans the mapping once for
// sync-point candidates, decodes regions concurrently on a bounded
// worker pool, and fans the results back in stream order — bit-identical
// to a serial decode, including errors, recovery accounting, and the
// sync-successor check a serial decode performs when it crosses a sync.
//
// The identity argument, region by region:
//
//   - A fresh decode started at a sync point's magic reproduces exactly
//     the serial decode's post-sync state: the PSB resets the TNT
//     buffer, last-IP compression, return stack, and current block, so
//     nothing before the sync is needed. The one serial behavior a
//     fresh start cannot reproduce is the sync-successor check (the
//     previous block must precede the sync TIP's target in the CFG);
//     the fan-in performs that check at each splice instead.
//   - Workers stop at the NEXT mid-walk sync point without consuming it
//     (stopAtSync), so regions tile the stream exactly. A worker's end
//     offset is found by the decode walk itself, never by the candidate
//     scan: a magic byte pattern inside packet payload (a TIP delta,
//     say) yields a worker run that no splice ever references.
//   - Any run the fan-in cannot validate — the worker errored, the
//     block count would meet or exceed the declared total, or the
//     splice check fails — makes the fan-in fall back to a serial
//     decode resumed at the last validated sync point, with the walk's
//     current block restored. From there the decode IS the serial
//     decode: same packets, same state, same errors, same recovery
//     resyncs. The final region always takes this path (its run ends at
//     the END packet, not a sync), so end-of-stream validation and
//     damage accounting are always serial code.
package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"ripple/internal/blockseq"
	"ripple/internal/isa"
	"ripple/internal/program"
)

// ParallelFileSource streams an encoded trace file decoding up to
// decoders sync regions concurrently (see the package comment on
// parallel decode). Passes replay the byte-identical block sequence —
// and surface the byte-identical errors and recovery reports — that
// FileSource's serial passes do. When the file cannot be mapped or the
// stream has no sync points, passes decode serially.
func ParallelFileSource(path string, prog *program.Program, decoders int) blockseq.Source {
	return FileSourceOptions(path, prog, FileOptions{Decoders: decoders})
}

// newParallelSource decorates rs, whose wholeInput supplies the stream
// bytes, with up-to-decoders-way region decode.
func newParallelSource(rs *readerSource, decoders int) *parallelSource {
	return &parallelSource{rs: rs, decoders: decoders, sem: make(chan struct{}, decoders)}
}

// parallelBytesSource is the in-memory parallel source (fuzzing and
// identity tests): the same fan-in machinery ParallelFileSource uses,
// without the file.
func parallelBytesSource(data []byte, prog *program.Program, rec bool, decoders int) blockseq.Source {
	return newParallelSource(&readerSource{prog: prog, inMemory: true, data: data, rec: rec}, decoders)
}

// parallelSource decorates a readerSource with concurrent region decode.
// The embedded source still serves the serial fallback, the LenHint
// cache, the decode meter, and the recovery report.
type parallelSource struct {
	rs       *readerSource
	decoders int
	// sem bounds the number of regions decoding at once across all
	// passes of this source.
	sem chan struct{}
	// testGate, when non-nil, is invoked by every region worker of this
	// source while it occupies a decode slot. Tests set it before the
	// first Open to install a rendezvous barrier proving that the
	// configured number of workers really decode simultaneously
	// (wall-clock speedup is unmeasurable on a 1-CPU CI box).
	testGate func()

	scanOnce sync.Once
	scan     parallelScan
}

// parallelScan is the one-time candidate scan over the mapping.
type parallelScan struct {
	data     []byte
	declared uint64
	// starts lists region start offsets in stream order: 0 (decode from
	// the header) followed by every occurrence of the PSB magic. False
	// positives (magic bytes inside packet payload) are harmless — the
	// fan-in chain only follows end offsets reported by real decodes.
	starts []int64
	ok     bool
}

func (ps *parallelSource) doScan() {
	data, ok := ps.rs.wholeInput()
	if !ok {
		return // no mapping: passes decode serially
	}
	d, err := newBytesDecoder(data, ps.rs.prog, false)
	if err != nil {
		return // unreadable header: let the serial pass surface it
	}
	starts := []int64{0}
	for from := d.pos; ; {
		i := bytes.Index(data[from:], psbMagic[:])
		if i < 0 {
			break
		}
		starts = append(starts, int64(from+i))
		from += i + 1
	}
	ps.scan = parallelScan{data: data, declared: d.Declared(), starts: starts, ok: len(starts) > 1}
}

func (ps *parallelSource) Open() blockseq.Seq {
	ps.scanOnce.Do(ps.doScan)
	if !ps.scan.ok {
		return ps.rs.Open()
	}
	return newParallelSeq(ps)
}

func (ps *parallelSource) LenHint() (int, bool) { return ps.rs.LenHint() }

// DecodeReport implements Reporting (recovery mode).
func (ps *parallelSource) DecodeReport() (DecodeReport, bool) { return ps.rs.DecodeReport() }

// DecodedBlocks implements DecodeCounting. Parallel passes meter the
// blocks they serve (region runs the fan-in validated plus the serial
// tail); speculative work on runs that end up discarded is not counted,
// keeping the meter deterministic.
func (ps *parallelSource) DecodedBlocks() uint64 { return ps.rs.DecodedBlocks() }

func (ps *parallelSource) Close() error { return ps.rs.Close() }

// regionRun is one worker's output: the blocks of a single sync region.
type regionRun struct {
	start  int64
	blocks []program.BlockID
	// exit is the last block of the run — the predecessor the next
	// region's splice check validates against.
	exit program.BlockID
	// end is the offset of the next region's PSB magic; valid only when
	// stopped is true (the run ended at a mid-walk sync point rather
	// than an error or the END packet).
	end     int64
	stopped bool
}

// decodeRegion decodes one region: from the header (start == 0) or from
// a sync point's magic, strictly, stopping at the next mid-walk sync.
// Workers always decode strictly even for a recovery source — damage
// inside a region invalidates the run, and the fan-in's serial fallback
// re-encounters and accounts it exactly as a serial recovery decode
// would.
func (ps *parallelSource) decodeRegion(start int64) *regionRun {
	run := &regionRun{start: start}
	d := getDecoder(ps.rs.prog)
	defer putDecoder(d)
	var err error
	if start == 0 {
		err = d.resetStart(ps.scan.data)
	} else {
		err = d.Reset(ps.scan.data[start:], ResumeSpec{Declared: ps.scan.declared, Off: start})
	}
	if err != nil {
		return run
	}
	d.stopAtSync = true
	var buf [decodeBatch]program.BlockID
	for {
		n, derr := d.NextBatch(buf[:])
		run.blocks = append(run.blocks, buf[:n]...)
		if derr != nil {
			if derr == errStopSync {
				run.stopped, run.end = true, d.off
			}
			break
		}
	}
	if len(run.blocks) > 0 {
		run.exit = run.blocks[len(run.blocks)-1]
	}
	return run
}

// parallelSeq is one pass: a fan-in chain over region runs, degrading to
// a serial decode at the first run it cannot validate. It implements
// Seeker and Checkpointer (ordinal marks; a backward seek restarts the
// pass), so the parallel source composes with consumers exactly like
// the other trace sources.
type parallelSeq struct {
	ps *parallelSource

	// Fan-in chain state. chainOff is the offset the chain has validated
	// up to (0 or a consumed run's end); emitted counts blocks across
	// consumed runs; prev is the last consumed block.
	runs      map[int64]chan *regionRun
	nextStart int
	chainOff  int64
	emitted   uint64
	prev      program.BlockID

	// Serving state: cur/ci is the run being served; pos is the ordinal
	// of the next block Next returns.
	cur []program.BlockID
	ci  int
	pos uint64

	// Serial fallback state, mirroring decodeSeq.
	serial     *Decoder
	serialBase uint64
	batch      []program.BlockID
	bi, bn     int
	fin        error

	done bool
	err  error
}

func newParallelSeq(ps *parallelSource) *parallelSeq {
	s := &parallelSeq{ps: ps, runs: make(map[int64]chan *regionRun)}
	s.dispatchAhead()
	return s
}

func (s *parallelSeq) Next() (program.BlockID, bool) {
	for {
		if s.ci < len(s.cur) {
			id := s.cur[s.ci]
			s.ci++
			s.pos++
			return id, true
		}
		if s.serial != nil {
			return s.serialNext()
		}
		if s.done || s.err != nil {
			return 0, false
		}
		s.advance()
	}
}

func (s *parallelSeq) Err() error { return s.err }

// advance consumes the region run at chainOff if it validates, else
// falls back to serial decode from chainOff.
func (s *parallelSeq) advance() {
	run := s.fetch(s.chainOff)
	if run.stopped && len(run.blocks) > 0 && run.end > run.start &&
		// Strictly below the declared total: a run that would complete
		// the stream must re-decode serially so END validation (and any
		// overrun error) is the serial decoder's.
		s.emitted+uint64(len(run.blocks)) < s.ps.scan.declared &&
		s.spliceOK(run) {
		s.cur, s.ci = run.blocks, 0
		s.emitted += uint64(len(run.blocks))
		s.prev = run.exit
		s.chainOff = run.end
		s.ps.rs.decoded.Add(uint64(len(run.blocks)))
		s.dispatchAhead()
		return
	}
	s.fallbackSerial()
}

// spliceOK replays the check stepSync performs when a serial decode
// crosses a sync point mid-walk: after a conditional branch, the sync
// TIP's target must be one of the two static successors. Indirect
// transfers accept any block entry, as the serial walk does. A failed
// check is not an error here — the serial fallback re-decodes the
// splice and produces the serial decode's exact error (or recovery
// resync).
func (s *parallelSeq) spliceOK(run *regionRun) bool {
	if s.prev == program.NoBlock {
		return true
	}
	b := s.ps.rs.prog.Block(s.prev)
	if b.Term != isa.TermCondBranch {
		return true
	}
	return run.blocks[0] == b.TakenTarget || run.blocks[0] == b.FallThrough
}

// fetch returns the run for the region starting at off, preferring a
// dispatched worker and decoding inline when the chain outran the
// dispatch window.
func (s *parallelSeq) fetch(off int64) *regionRun {
	if ch, ok := s.runs[off]; ok {
		delete(s.runs, off)
		return <-ch
	}
	return s.ps.decodeRegion(off)
}

// dispatchAhead keeps up to decoders*2 region decodes in flight ahead of
// the chain, pruning runs the chain has already passed (false-positive
// candidates the real region boundaries skipped over).
func (s *parallelSeq) dispatchAhead() {
	for off := range s.runs {
		if off < s.chainOff {
			delete(s.runs, off)
		}
	}
	starts := s.ps.scan.starts
	window := s.ps.decoders * 2
	for s.nextStart < len(starts) && len(s.runs) < window {
		off := starts[s.nextStart]
		s.nextStart++
		if off < s.chainOff {
			continue
		}
		if _, ok := s.runs[off]; ok {
			continue
		}
		s.dispatch(off)
	}
}

func (s *parallelSeq) dispatch(off int64) {
	ch := make(chan *regionRun, 1)
	s.runs[off] = ch
	ps := s.ps
	go func() {
		ps.sem <- struct{}{}
		if ps.testGate != nil {
			ps.testGate()
		}
		run := ps.decodeRegion(off)
		<-ps.sem
		ch <- run
	}()
}

// fallbackSerial resumes a serial decode at the last validated sync
// point. Restoring the walk's current block (d.cur) makes the resumed
// decoder's first step the exact serial step across this sync: same
// successor check, same error on failure, same recovery resync.
func (s *parallelSeq) fallbackSerial() {
	ps := s.ps
	var d *Decoder
	var err error
	if s.chainOff == 0 {
		d, err = newBytesDecoder(ps.scan.data, ps.rs.prog, ps.rs.rec)
	} else {
		d, err = ResumeBytesDecoder(ps.scan.data[s.chainOff:], ps.rs.prog, ResumeSpec{
			Declared: ps.scan.declared,
			Emitted:  s.emitted,
			Off:      s.chainOff,
			Recover:  ps.rs.rec,
		})
		if err == nil {
			d.cur = s.prev
		}
	}
	if err != nil {
		s.err = err
		s.done = true
		return
	}
	s.serial = d
	s.serialBase = s.emitted
}

// serialNext serves the serial tail, batching like decodeSeq.
func (s *parallelSeq) serialNext() (program.BlockID, bool) {
	for {
		if s.bi < s.bn {
			id := s.batch[s.bi]
			s.bi++
			s.pos++
			return id, true
		}
		if s.fin != nil {
			s.finishSerial()
			return 0, false
		}
		if s.batch == nil {
			s.batch = make([]program.BlockID, decodeBatch)
		}
		n, err := s.serial.NextBatch(s.batch)
		s.bi, s.bn = 0, n
		if err != nil {
			s.fin = err
		} else if n == 0 {
			s.fin = io.EOF
		}
		if n > 0 {
			s.ps.rs.decoded.Add(uint64(n))
		}
	}
}

// finishSerial ends the pass: surfaces the terminal error and, for a
// recovery source, publishes the pass report — the serial tail's
// accounting plus the blocks the validated runs contributed (everything
// before the fallback point decoded cleanly, so all damage regions are
// the serial decoder's).
func (s *parallelSeq) finishSerial() {
	if s.fin != io.EOF {
		s.err = s.fin
	}
	if s.ps.rs.rec {
		rep := s.serial.Report()
		rep.Decoded += s.serialBase
		s.ps.rs.setReport(rep)
	}
	s.serial, s.fin = nil, nil
	s.done = true
}

// SeekBlock implements blockseq.Seeker: forward seeks drain the chain,
// backward seeks restart the pass (region runs are not retained once
// served). Out-of-range targets error without moving the pass.
func (s *parallelSeq) SeekBlock(n int) error {
	if s.err != nil {
		return s.err
	}
	declared := s.ps.scan.declared
	if n < 0 || uint64(n) > declared {
		return fmt.Errorf("trace: seek to block %d outside [0, %d]", n, declared)
	}
	target := uint64(n)
	if target < s.pos {
		*s = *newParallelSeq(s.ps)
	}
	for s.pos < target {
		if _, ok := s.Next(); !ok {
			if s.err == nil {
				s.err = fmt.Errorf("trace: stream ended %d blocks short during seek", target-s.pos)
				s.done = true
			}
			return s.err
		}
	}
	return nil
}

// Checkpoint implements blockseq.Checkpointer: the mark is the block
// ordinal, the same portable shape indexed passes use.
func (s *parallelSeq) Checkpoint() (blockseq.Mark, error) {
	if s.err != nil {
		return nil, s.err
	}
	var buf [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(buf[:], s.pos)
	return blockseq.Mark(buf[:k]), nil
}

// Restore implements blockseq.Checkpointer.
func (s *parallelSeq) Restore(m blockseq.Mark) error {
	v, k := binary.Uvarint(m)
	if k <= 0 || k != len(m) {
		return fmt.Errorf("trace: malformed seek mark (%d bytes)", len(m))
	}
	return s.SeekBlock(int(v))
}
