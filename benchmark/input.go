package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"ripple/internal/blockseq"
	"ripple/internal/isa"
	"ripple/internal/program"
	"ripple/internal/trace"
	"ripple/internal/workload"
)

// input is one workload's generated profile: the catalog program, the
// seed's block trace, and that trace encoded to a file.
type input struct {
	app       *workload.App
	prog      *program.Program
	blocks    []program.BlockID
	hash      string // blockHash(blocks)
	tracePath string
	fileID    string // SHA-256 of the trace file, the plan's source identity
}

// seedMix spreads a benchmark seed over the 64-bit model seed
// (splitmix64); seed 0 maps to 0, leaving the catalog seed unchanged.
func seedMix(seed uint64) uint64 {
	if seed == 0 {
		return 0
	}
	z := seed * 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// makeInput builds the catalog application, synthesizes the seed's
// profile of about n blocks and encodes it to path. Every call is a full
// set-up: nothing is cached between calls.
func (b *bench) makeInput(appName string, n int, path string, parent int) (*input, error) {
	m, ok := workload.ByName(appName)
	if !ok {
		return nil, fmt.Errorf("unknown application %q", appName)
	}
	id := b.begin("workload.Build", parent)
	app, err := workload.Build(m)
	b.end(id)
	if err != nil {
		return nil, err
	}
	id = b.begin("workload.Trace", parent)
	blocks := profile(app, n, b.cfg.seed)
	b.end(id)

	in := &input{app: app, prog: app.Prog, blocks: blocks, hash: blockHash(blocks), tracePath: path}
	id = b.begin("trace.EncodeSourceSync", parent)
	err = encodeFile(path, app.Prog, blocks)
	b.end(id)
	if err != nil {
		return nil, err
	}
	if b.cfg.corrupt == "trace" {
		if err := corruptFile(path); err != nil {
			return nil, err
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	in.fileID = "pt:" + hex.EncodeToString(sum[:])
	return in, nil
}

// profile returns the seed's trace of about n blocks. Seed 0 is the
// catalog trace, byte-identical to `ripplegen -app <app> -blocks n`.
// Any other seed reseeds the walk (App.Model.Seed) and builds a matched
// sample of the catalog trace from it: request slot i of the catalog
// trace is filled with a request of the reseeded walk to the same service
// whose length is within a tenth of slot i's, and the filled slots are
// concatenated in catalog order. Every seed thus profiles different
// requests in the same mix, so a held-out seed moves the inputs without
// letting the Zipf draw of a few long requests swing the amount of
// analysis work per block. Slots the capped walk cannot fill are dropped.
func profile(app *workload.App, n int, seed uint64) []program.BlockID {
	ref := app.Trace(0, n)
	if seed == 0 {
		return ref
	}
	starts := app.RequestBoundaries(ref)
	lens := make([]int, len(starts))
	open := make(map[program.BlockID][]int) // service entry -> unfilled slots, in catalog order
	for i, s := range starts {
		end := len(ref)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		lens[i] = end - s
		open[ref[s]] = append(open[ref[s]], i)
	}
	filled := make([][]program.BlockID, len(starts))
	left := len(starts)

	catalog := app.Model.Seed
	app.Model.Seed ^= seedMix(seed)
	defer func() { app.Model.Seed = catalog }()
	seq := app.Stream(0, walkCap*n).Open()
	var req []program.BlockID
	depth := 0
	for left > 0 {
		bid, ok := seq.Next()
		if !ok {
			break
		}
		req = append(req, bid)
		switch app.Prog.Block(bid).Term {
		case isa.TermCall, isa.TermIndirectCall:
			depth++
			continue
		case isa.TermRet:
			if depth > 0 {
				depth--
				continue
			}
		default:
			continue
		}
		// A return with an empty call stack ends the request (the walker's
		// own rule), so req[0] is its service entry.
		slots := open[req[0]]
		for j, slot := range slots {
			if d := len(req) - lens[slot]; d <= lens[slot]/matchDiv && -d <= lens[slot]/matchDiv {
				filled[slot] = append([]program.BlockID(nil), req...)
				open[req[0]] = append(slots[:j], slots[j+1:]...)
				left--
				break
			}
		}
		req = req[:0]
	}
	out := make([]program.BlockID, 0, len(ref))
	for _, r := range filled {
		out = append(out, r...)
	}
	return out
}

// A walk request fills a slot when its length is within 1/matchDiv of
// the slot's; the walk stops after walkCap times the catalog length.
const (
	matchDiv = 10
	walkCap  = 32
)

// blockHash is the SHA-256 of the block IDs as little-endian uint32s.
func blockHash(blocks []program.BlockID) string {
	h := sha256.New()
	var buf [4]byte
	for _, bid := range blocks {
		binary.LittleEndian.PutUint32(buf[:], uint32(bid))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// seqHash drains one pass of src and returns its block hash and length.
func seqHash(src blockseq.Source) (string, int, error) {
	h := sha256.New()
	var buf [4]byte
	n := 0
	seq := src.Open()
	for {
		bid, ok := seq.Next()
		if !ok {
			break
		}
		binary.LittleEndian.PutUint32(buf[:], uint32(bid))
		h.Write(buf[:])
		n++
	}
	if err := seq.Err(); err != nil {
		return "", n, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// encodeFile writes blocks as a packet trace (no sync points, as
// ripplegen writes by default).
func encodeFile(path string, prog *program.Program, blocks []program.BlockID) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if _, err := trace.EncodeSourceSync(w, prog, blockseq.SliceSource(blocks), 0); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// corruptFile flips the bits of a run of bytes in the middle of a file
// (the self-test's damaged trace or plan).
func corruptFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for i := len(raw) / 2; i < len(raw)/2+16 && i < len(raw); i++ {
		raw[i] ^= 0xA5
	}
	return os.WriteFile(path, raw, 0o644)
}

// fileSource opens the trace the way rippleanalyze does by default: a
// memory-mapped, strictly decoded file source.
func fileSource(in *input) blockseq.Source {
	return trace.FileSourceOptions(in.tracePath, in.prog, trace.FileOptions{})
}

// closeSource releases a file source's descriptor and mapping.
func closeSource(src blockseq.Source) {
	if c, ok := src.(io.Closer); ok {
		c.Close()
	}
}

// decodedBlocks reports how many blocks a file source has decoded over
// all its passes.
func decodedBlocks(src blockseq.Source) uint64 {
	if c, ok := src.(trace.DecodeCounting); ok {
		return c.DecodedBlocks()
	}
	return 0
}
