package trace

import (
	"io"
	"sync"
	"sync/atomic"

	"ripple/internal/blockseq"
	"ripple/internal/program"
)

// Reporting is implemented by recovery-mode trace sources: after at least
// one full pass, DecodeReport returns the damage accounting of the most
// recent completed pass. ok is false until a pass has completed.
type Reporting interface {
	DecodeReport() (DecodeReport, bool)
}

// DecodeCounting is implemented by trace sources that meter decode work:
// DecodedBlocks returns the total number of blocks decoded across all
// passes of the source so far, including blocks discarded while seeking.
// Perf tests assert replay-cost bounds against it.
type DecodeCounting interface {
	DecodedBlocks() uint64
}

// FileOptions configures how a trace file source reads its file.
type FileOptions struct {
	// NoMmap disables memory-mapped reads: every pass streams through
	// the shared descriptor (ReadAt section readers), the portable
	// fallback. The default maps the file once and decodes zero-copy
	// slices of the mapping, falling back to the reader path
	// automatically when the platform has no mmap or the map fails.
	// Live, still-growing traces should be tailed (internal/watch),
	// which always reads via ReadAt — a mapping is a fixed-size
	// snapshot, and truncation under it faults.
	NoMmap bool
	// Recover selects recovery mode: damaged packet regions are skipped
	// at PSB sync points instead of erroring, and the source implements
	// Reporting.
	Recover bool
}

// NewSource wraps an encoded packet stream as a replayable block source:
// every Open calls open for a fresh reader and decodes it from the start,
// so multi-pass consumers replay the file instead of materializing it.
// The reader is closed when the pass ends (exhaustion or error).
func NewSource(prog *program.Program, open func() (io.ReadCloser, error)) blockseq.Source {
	return &readerSource{prog: prog, open: open}
}

// FileSourceOptions streams an encoded trace file, read as o says (see
// FileOptions; the zero value maps the file and decodes strictly).
// LenHint reads just the stream header, so consumers can pre-size
// buffers without a full pass. All passes share one os.File, so
// re-opening the source for multi-pass analysis does not churn file
// descriptors; Close (optional) releases it. In recovery mode damaged
// packet regions are skipped at PSB sync points instead of erroring,
// the source implements Reporting, and passes over a damaged stream
// still replay identically — recovery decoding is deterministic for a
// given byte stream.
func FileSourceOptions(path string, prog *program.Program, o FileOptions) blockseq.Source {
	h := &fileHandle{path: path}
	rs := &readerSource{prog: prog, open: h.open, closer: h, rec: o.Recover}
	if !o.NoMmap {
		rs.h = h
	}
	return rs
}

// BytesSource streams an in-memory encoded trace (tests, benchmarks).
// Decoding indexes the slice directly — the same zero-copy path a
// mapped file uses.
func BytesSource(data []byte, prog *program.Program) blockseq.Source {
	return &readerSource{prog: prog, inMemory: true, data: data}
}

// RecoverBytesSource streams an in-memory encoded trace in recovery mode
// (see FileSourceOptions).
func RecoverBytesSource(data []byte, prog *program.Program) blockseq.Source {
	return &readerSource{prog: prog, inMemory: true, data: data, rec: true}
}

type readerSource struct {
	prog *program.Program
	open func() (io.ReadCloser, error)
	rec  bool
	// inMemory selects whole-buffer decoding of data (BytesSource).
	inMemory bool
	data     []byte
	// h, when set, offers the file's mmap to passes; a failed map falls
	// back to open.
	h *fileHandle
	// closer, when set, releases the shared file handle behind open.
	closer io.Closer
	// decoded meters decode work across all passes (see DecodeCounting).
	decoded atomic.Uint64

	// hintOnce guards the cached header read: parallel tuning jobs share
	// one source, so LenHint must be safe under concurrent passes.
	hintOnce sync.Once
	hint     int
	hintOK   bool

	// mu guards the last completed pass's recovery report.
	mu         sync.Mutex
	report     DecodeReport
	haveReport bool
}

// wholeInput returns the stream bytes when the source can decode
// zero-copy: an explicit in-memory slice, or the file's mapping.
func (s *readerSource) wholeInput() ([]byte, bool) {
	if s.inMemory {
		return s.data, true
	}
	if s.h != nil {
		if m, err := s.h.data(); err == nil {
			return m, true
		}
	}
	return nil, false
}

func (s *readerSource) Open() blockseq.Seq {
	if data, ok := s.wholeInput(); ok {
		d, err := newBytesDecoder(data, s.prog, s.rec)
		if err != nil {
			return &decodeSeq{err: err}
		}
		return &decodeSeq{d: d, src: s}
	}
	rc, err := s.open()
	if err != nil {
		return &decodeSeq{err: err}
	}
	d, err := newDecoder(rc, s.prog, s.rec)
	if err != nil {
		rc.Close()
		return &decodeSeq{err: err}
	}
	return &decodeSeq{rc: rc, d: d, src: s}
}

// LenHint opens the stream just long enough to read the header's
// declared block count. The result is cached after the first call. In
// recovery mode no hint is given: a damaged stream may decode fewer
// blocks than the header declares, and the hint contract requires
// exactness.
func (s *readerSource) LenHint() (int, bool) {
	if s.rec {
		return 0, false
	}
	s.hintOnce.Do(func() {
		if data, ok := s.wholeInput(); ok {
			d, err := NewBytesDecoder(data, s.prog)
			if err != nil {
				return
			}
			s.hint, s.hintOK = int(d.Declared()), true
			return
		}
		rc, err := s.open()
		if err != nil {
			return
		}
		defer rc.Close()
		d, err := NewDecoder(rc, s.prog)
		if err != nil {
			return
		}
		s.hint, s.hintOK = int(d.Declared()), true
	})
	return s.hint, s.hintOK
}

// DecodeReport implements Reporting: the damage accounting of the most
// recently completed recovery pass.
func (s *readerSource) DecodeReport() (DecodeReport, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.report, s.haveReport
}

// DecodedBlocks implements DecodeCounting.
func (s *readerSource) DecodedBlocks() uint64 { return s.decoded.Load() }

// Close releases the shared file handle, when the source has one.
// Later passes reopen it transparently.
func (s *readerSource) Close() error {
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

// setReport publishes a completed pass's report.
func (s *readerSource) setReport(rep DecodeReport) {
	s.mu.Lock()
	s.report = rep
	s.haveReport = true
	s.mu.Unlock()
}

// decodeBatch sizes the per-pass decode-ahead buffer: Next is served
// from it and the decoder's batched fast path refills it, amortizing
// the per-block dispatch.
const decodeBatch = 512

// decodeSeq is one decoding pass over the packet stream.
type decodeSeq struct {
	rc  io.ReadCloser
	d   *Decoder
	src *readerSource
	err error

	batch  []program.BlockID
	bi, bn int
	// fin records the decode's terminal error (io.EOF for a clean end)
	// once the decoder is done; blocks already in the batch are served
	// before it surfaces, preserving per-block semantics.
	fin error
}

func (s *decodeSeq) Next() (program.BlockID, bool) {
	for {
		if s.bi < s.bn {
			id := s.batch[s.bi]
			s.bi++
			return id, true
		}
		if s.d == nil {
			return 0, false
		}
		if s.fin != nil {
			if s.fin != io.EOF {
				s.err = s.fin
			}
			s.close()
			return 0, false
		}
		if s.batch == nil {
			s.batch = make([]program.BlockID, decodeBatch)
		}
		n, err := s.d.NextBatch(s.batch)
		s.bi, s.bn = 0, n
		if err != nil {
			s.fin = err
		} else if n == 0 {
			s.fin = io.EOF // defensive: NextBatch always progresses or errors
		}
		if s.src != nil && n > 0 {
			s.src.decoded.Add(uint64(n))
		}
	}
}

func (s *decodeSeq) Err() error { return s.err }

func (s *decodeSeq) close() {
	if s.src != nil && s.src.rec && s.d != nil {
		s.src.setReport(s.d.Report())
	}
	if s.rc != nil {
		if cerr := s.rc.Close(); cerr != nil && s.err == nil {
			s.err = cerr
		}
		s.rc = nil
	}
	s.d = nil
}
