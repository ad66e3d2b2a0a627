package trace

import (
	"errors"
	"fmt"
	"io"

	"github.com/example/vectrace/internal/obs"
)

// Trace file format names, as sniffed by OpenTrace and selected by
// `vectrace record -format`.
const (
	FormatVTR1 = "vtr1"
	FormatVTR2 = "vtr2"
)

// Opened is the result of format-sniffing a trace file: which format it
// is, a sequential event source that works for both, and — for a VTR2 file
// whose footer verified — the random-access Container enabling region
// seeks and parallel scanning.
type Opened struct {
	// Format is FormatVTR1 or FormatVTR2.
	Format string
	// Container is non-nil only for a VTR2 file with a verified footer
	// index. VTR1 files and salvage-mode VTR2 files leave it nil, telling
	// the pipeline to take the sequential path.
	Container *Container
	// IndexErr records why a VTR2 footer was rejected (nil otherwise). The
	// sequential Source still salvages every intact block before the
	// damage, so a trace truncated in its footer analyzes fully — only the
	// seek index is lost.
	IndexErr error
	src      EventSource
}

// Source returns a fresh-at-open sequential event source for the file.
// Valid for exactly one pass.
func (o *Opened) Source() EventSource { return o.src }

// OpenTrace sniffs the format of a trace file and opens it: VTR1 files get
// the classic sequential Decoder, VTR2 files get the footer index plus a
// sequential block walker (falling back to salvage when the footer is
// damaged — IndexErr says why, and damage in the data area still surfaces
// per-region, exactly like VTR1). Bytes consumed through either path land
// in the recorder's trace_bytes_read counter; a nil recorder is fine.
func OpenTrace(r io.ReaderAt, size int64, rec *obs.Recorder) (*Opened, error) {
	var m [4]byte
	if size < 4 {
		return nil, corruptAt("reading magic", size, "file too small (%d bytes) to hold a trace header", size)
	}
	if n, err := r.ReadAt(m[:], 0); n != len(m) {
		if err == nil || err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			err = fmt.Errorf("unexpected EOF: %w", ErrCorruptTrace)
		}
		return nil, &OffsetError{Context: "reading magic", Offset: int64(n), Err: err}
	}
	seq := func() EventSource {
		return NewBlockSource(&obs.CountingReader{R: io.NewSectionReader(r, 0, size), Rec: rec, C: obs.TraceBytesRead}, rec)
	}
	switch string(m[:]) {
	case magic:
		d := NewDecoder(&obs.CountingReader{R: io.NewSectionReader(r, 0, size), Rec: rec, C: obs.TraceBytesRead})
		return &Opened{Format: FormatVTR1, src: d}, nil
	case magic2:
		c, err := OpenContainer(r, size, rec)
		if err != nil {
			return &Opened{Format: FormatVTR2, IndexErr: err, src: seq()}, nil
		}
		return &Opened{Format: FormatVTR2, Container: c, src: seq()}, nil
	default:
		return nil, corruptAt("reading magic", 0, "bad magic %q", m[:])
	}
}
