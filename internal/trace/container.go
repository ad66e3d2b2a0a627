package trace

// The VTR2 container wraps the canonical VTR1 event encoding in a seekable,
// compressed, indexed file format — the uacs-lynx "decoupled writer/reader"
// architecture applied to this pipeline's traces. Where VTR1 is a single
// varint stream that must be decoded from byte 0, VTR2 frames the same
// event encoding into independently decodable blocks (the per-block
// address-delta chain restarts at 0) and appends a footer holding a block
// index and a region index, so a reader can jump straight to any dynamic
// loop region and scan workers can decode disjoint block ranges in
// parallel. See DESIGN.md §13 for the full wire-format contract.
//
// Layout:
//
//	header    magic "VTR2", codec byte (0 = none, 1 = flate)
//	blocks    per block: uvarint(storedLen<<1 | compressed),
//	          uvarint(rawLen), uvarint(eventCount),
//	          u32le crc32(stored payload), payload bytes
//	sentinel  uvarint 0 (end of blocks)
//	footer    uvarint(numBlocks), block entries mirroring the frame headers;
//	          uvarint(numRegions), per region uvarint loopID, uvarint start,
//	          uvarint(end-start), uvarint depth; u32le crc32(footer)
//	trailer   u32le footerLen, end magic "2RTV"
//
// The frame headers and the footer's block entries are redundant on
// purpose: a reader with the footer verifies every frame against the index
// (a lying footer is corruption, named by block), and a reader without the
// footer — a truncated file — walks the frames sequentially and salvages
// every intact block before the damage (BlockSource).

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/example/vectrace/internal/ir"
)

const (
	magic2    = "VTR2"
	magic2End = "2RTV"

	codecNone  byte = 0
	codecFlate byte = 1

	// headerLen is the fixed prefix: magic plus the codec byte. trailerLen
	// is the fixed tail: u32le footer length plus the end magic.
	headerLen  = 5
	trailerLen = 8

	// DefaultBlockBytes is the target uncompressed payload size per block —
	// small enough that a region seek decodes little beyond its range,
	// large enough that flate and the per-block frame overhead amortize.
	DefaultBlockBytes = 64 << 10

	// maxBlockRawBytes caps a block's uncompressed size. The writer clamps
	// its block target below it; decoders reject larger claims, bounding
	// what a lying frame or footer can make a reader allocate.
	maxBlockRawBytes = 1 << 26
)

// ContainerOptions configures the VTR2 writer.
type ContainerOptions struct {
	// BlockBytes is the target uncompressed payload size per block; a block
	// is sealed once its payload reaches it. 0 means DefaultBlockBytes.
	BlockBytes int
	// Codec selects the per-file compressor: "flate" (the default) deflates
	// each block and keeps the compressed form when it is smaller; "none"
	// stores every block raw.
	Codec string
}

// codecByte resolves the option string to the on-disk codec identifier.
func (o ContainerOptions) codecByte() (byte, error) {
	switch o.Codec {
	case "", "flate":
		return codecFlate, nil
	case "none":
		return codecNone, nil
	}
	return 0, fmt.Errorf("trace: unknown container codec %q (want \"flate\" or \"none\")", o.Codec)
}

// blockBytes resolves and clamps the block-size target.
func (o ContainerOptions) blockBytes() int {
	b := o.BlockBytes
	if b <= 0 {
		b = DefaultBlockBytes
	}
	if b < 64 {
		b = 64
	}
	if b > maxBlockRawBytes-64 {
		b = maxBlockRawBytes - 64
	}
	return b
}

// CodecName reports the canonical name of an on-disk codec byte.
func codecName(c byte) string {
	if c == codecFlate {
		return "flate"
	}
	return "none"
}

// IndexRegion is one dynamic loop region recorded in a VTR2 footer index:
// the event range [Start, End) of one execution of loop LoopID, marker
// events excluded — exactly the ranges Trace.Regions computes — plus the
// call depth at loop entry. Entries are stored in global close order, so
// filtering by loop yields regions in the order the sequential scanner
// emits them, and a region's position in the filtered slice is the index
// RegionReport carries.
type IndexRegion struct {
	LoopID int
	Start  int
	End    int
	Depth  int
}

// Events returns the region's dynamic event count.
func (r IndexRegion) Events() int { return r.End - r.Start }

// allTracker is the all-loops generalization of regionTracker: the
// container index is loop-agnostic (the target loop is chosen at read
// time), so the writer records every loop's regions. Close semantics are
// identical to regionTracker's, including call-stack-aware closing on early
// returns, which is what makes the index agree with Trace.Regions for every
// loop.
type allTracker struct {
	stack  []openRegion
	depth  int
	closed []IndexRegion // scratch, reused across steps
}

// step feeds the event at absolute index i and returns the regions it
// closes, in close order. The returned slice is reused by the next call.
func (t *allTracker) step(i int, in *ir.Instr) []IndexRegion {
	t.closed = t.closed[:0]
	switch in.Op {
	case ir.OpLoopBegin:
		t.stack = append(t.stack, openRegion{loopID: int(in.Loop), start: i + 1, depth: t.depth})
	case ir.OpLoopEnd:
		if len(t.stack) > 0 {
			o := t.stack[len(t.stack)-1]
			t.stack = t.stack[:len(t.stack)-1]
			t.closed = append(t.closed, IndexRegion{LoopID: o.loopID, Start: o.start, End: i, Depth: o.depth})
		}
	case ir.OpCall:
		t.depth++
	case ir.OpRet:
		t.closeTo(t.depth, i)
		if t.depth > 0 {
			t.depth--
		}
	}
	return t.closed
}

// finish closes every still-open region at end-of-trace index n.
func (t *allTracker) finish(n int) []IndexRegion {
	t.closed = t.closed[:0]
	t.closeTo(0, n)
	return t.closed
}

// closeTo pops stack entries at or above minDepth, recording their regions.
func (t *allTracker) closeTo(minDepth, endIdx int) {
	for len(t.stack) > 0 && t.stack[len(t.stack)-1].depth >= minDepth {
		o := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		t.closed = append(t.closed, IndexRegion{LoopID: o.loopID, Start: o.start, End: endIdx, Depth: o.depth})
	}
}

// blockMeta is one block's index entry, shared between the writer's footer
// and the reader's parsed view.
type blockMeta struct {
	stored     int    // payload bytes as stored on disk
	raw        int    // payload bytes after decompression
	events     int    // events encoded in the block
	crc        uint32 // crc32 (IEEE) of the stored payload
	compressed bool
}

// uvlen returns the encoded length of x as a uvarint.
func uvlen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// frameHeaderLen returns the on-disk size of a block's frame header.
func (b blockMeta) frameHeaderLen() int {
	return uvlen(b.storedWord()) + uvlen(uint64(b.raw)) + uvlen(uint64(b.events)) + 4
}

// storedWord packs the stored length and the compressed bit.
func (b blockMeta) storedWord() uint64 {
	w := uint64(b.stored) << 1
	if b.compressed {
		w |= 1
	}
	return w
}

// A ContainerWriter streams events into the VTR2 container format. Unlike
// the VTR1 Encoder it needs the module: region boundaries are tracked as
// events arrive (the same state machine the sequential scanner replays) so
// the footer can map any loop region to its block range without re-reading
// the stream. Memory is bounded by one uncompressed block plus the index —
// O(block size + blocks + regions) — independent of the trace length.
type ContainerWriter struct {
	bw         *bufio.Writer
	mod        *ir.Module
	tk         allTracker
	blockBytes int
	codec      byte

	raw         []byte // current block's uncompressed payload
	blockEvents int
	prevAddr    int64 // per-block address-delta chain (restarts at 0)
	idx         int   // events written so far

	blocks  []blockMeta
	regions []IndexRegion

	scratch bytes.Buffer // flate destination, reused across blocks
	fw      *flate.Writer
	varbuf  [binary.MaxVarintLen64]byte

	wroteHeader bool
	closed      bool
	err         error
}

// NewContainerWriter returns a writer streaming the VTR2 container to w.
// The header is written on the first Write (or Close, for an empty trace).
func NewContainerWriter(w io.Writer, mod *ir.Module, opts ContainerOptions) (*ContainerWriter, error) {
	codec, err := opts.codecByte()
	if err != nil {
		return nil, err
	}
	return &ContainerWriter{
		bw:         bufio.NewWriter(w),
		mod:        mod,
		blockBytes: opts.blockBytes(),
		codec:      codec,
	}, nil
}

// header writes the magic and codec byte once.
func (cw *ContainerWriter) header() error {
	if cw.wroteHeader {
		return nil
	}
	cw.wroteHeader = true
	if _, err := cw.bw.WriteString(magic2); err != nil {
		return err
	}
	return cw.bw.WriteByte(cw.codec)
}

// fail latches a writer error.
func (cw *ContainerWriter) fail(err error) error {
	cw.err = err
	return err
}

// Write appends one event to the container, tracking region boundaries.
func (cw *ContainerWriter) Write(ev Event) error {
	if cw.err != nil {
		return cw.err
	}
	if cw.closed {
		return cw.fail(fmt.Errorf("trace: write on closed ContainerWriter"))
	}
	if ev.ID < 0 || int(ev.ID) >= cw.mod.NumInstrs {
		return cw.fail(fmt.Errorf("trace: event ID %d not in module (%d instructions)", ev.ID, cw.mod.NumInstrs))
	}
	if err := cw.header(); err != nil {
		return cw.fail(err)
	}
	cw.regions = append(cw.regions, cw.tk.step(cw.idx, cw.mod.InstrAt(ev.ID))...)
	var err error
	cw.raw, cw.prevAddr, err = appendEvent(cw.raw, ev, cw.prevAddr)
	if err != nil {
		return cw.fail(err)
	}
	cw.blockEvents++
	cw.idx++
	if len(cw.raw) >= cw.blockBytes {
		if err := cw.flushBlock(); err != nil {
			return cw.fail(err)
		}
	}
	return nil
}

// flushBlock seals the current block: compress when that shrinks it, frame
// it, and reset the per-block state (including the address-delta chain, so
// every block decodes independently).
func (cw *ContainerWriter) flushBlock() error {
	if cw.blockEvents == 0 {
		return nil
	}
	stored := cw.raw
	compressed := false
	if cw.codec == codecFlate {
		cw.scratch.Reset()
		if cw.fw == nil {
			fw, err := flate.NewWriter(&cw.scratch, flate.BestSpeed)
			if err != nil {
				return err
			}
			cw.fw = fw
		} else {
			cw.fw.Reset(&cw.scratch)
		}
		if _, err := cw.fw.Write(cw.raw); err != nil {
			return err
		}
		if err := cw.fw.Close(); err != nil {
			return err
		}
		if cw.scratch.Len() < len(cw.raw) {
			stored = cw.scratch.Bytes()
			compressed = true
		}
	}
	meta := blockMeta{
		stored:     len(stored),
		raw:        len(cw.raw),
		events:     cw.blockEvents,
		crc:        crc32.ChecksumIEEE(stored),
		compressed: compressed,
	}
	if err := cw.writeBlockEntry(cw.bw, meta); err != nil {
		return err
	}
	if _, err := cw.bw.Write(stored); err != nil {
		return err
	}
	cw.blocks = append(cw.blocks, meta)
	cw.raw = cw.raw[:0]
	cw.blockEvents = 0
	cw.prevAddr = 0
	return nil
}

// writeBlockEntry writes a block's header fields (the same layout is used
// for the on-wire frame header and the footer's block index entries).
func (cw *ContainerWriter) writeBlockEntry(w io.Writer, b blockMeta) error {
	for _, v := range []uint64{b.storedWord(), uint64(b.raw), uint64(b.events)} {
		n := binary.PutUvarint(cw.varbuf[:], v)
		if _, err := w.Write(cw.varbuf[:n]); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint32(cw.varbuf[:4], b.crc)
	_, err := w.Write(cw.varbuf[:4])
	return err
}

// Close seals the last block, writes the end-of-blocks sentinel, the footer
// index, and the trailer, then flushes. It does not close the underlying
// writer.
func (cw *ContainerWriter) Close() error {
	if cw.err != nil {
		return cw.err
	}
	if cw.closed {
		return nil
	}
	cw.closed = true
	if err := cw.header(); err != nil {
		return cw.fail(err)
	}
	if err := cw.flushBlock(); err != nil {
		return cw.fail(err)
	}
	cw.regions = append(cw.regions, cw.tk.finish(cw.idx)...)
	if err := cw.bw.WriteByte(0); err != nil { // end-of-blocks sentinel
		return cw.fail(err)
	}
	footer, err := cw.encodeFooter()
	if err != nil {
		return cw.fail(err)
	}
	if _, err := cw.bw.Write(footer); err != nil {
		return cw.fail(err)
	}
	var tr [trailerLen]byte
	binary.LittleEndian.PutUint32(tr[:4], uint32(len(footer)))
	copy(tr[4:], magic2End)
	if _, err := cw.bw.Write(tr[:]); err != nil {
		return cw.fail(err)
	}
	if err := cw.bw.Flush(); err != nil {
		return cw.fail(err)
	}
	return nil
}

// encodeFooter serializes the block and region indexes plus their checksum.
func (cw *ContainerWriter) encodeFooter() ([]byte, error) {
	var buf bytes.Buffer
	putUv := func(v uint64) {
		n := binary.PutUvarint(cw.varbuf[:], v)
		buf.Write(cw.varbuf[:n])
	}
	putUv(uint64(len(cw.blocks)))
	for _, b := range cw.blocks {
		if err := cw.writeBlockEntry(&buf, b); err != nil {
			return nil, err
		}
	}
	putUv(uint64(len(cw.regions)))
	for _, r := range cw.regions {
		putUv(uint64(r.LoopID))
		putUv(uint64(r.Start))
		putUv(uint64(r.End - r.Start))
		putUv(uint64(r.Depth))
	}
	crc := crc32.ChecksumIEEE(buf.Bytes())
	binary.LittleEndian.PutUint32(cw.varbuf[:4], crc)
	buf.Write(cw.varbuf[:4])
	if buf.Len() > math.MaxUint32 {
		return nil, fmt.Errorf("trace: container footer exceeds 4 GiB")
	}
	return buf.Bytes(), nil
}

// EncodeContainer writes events to w in the VTR2 container format — the
// one-shot counterpart of ContainerWriter, used to transcode decoded VTR1
// traces.
func EncodeContainer(w io.Writer, mod *ir.Module, events []Event, opts ContainerOptions) error {
	cw, err := NewContainerWriter(w, mod, opts)
	if err != nil {
		return err
	}
	for _, ev := range events {
		if err := cw.Write(ev); err != nil {
			return err
		}
	}
	return cw.Close()
}
