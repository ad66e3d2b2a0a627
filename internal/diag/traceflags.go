package diag

import (
	"flag"
	"fmt"

	"github.com/example/vectrace/internal/trace"
)

// TraceFormat groups the trace-container knobs of vectrace's writer
// (record): which on-disk format to write, and the VTR2 block-size and
// compression options the writer encodes with. Readers need no knobs: they
// sniff the format. Like the other flag groups here, zero values select
// the defaults and the struct is safe to wire unconditionally.
type TraceFormat struct {
	// Format is the selected trace format: trace.FormatVTR1 or
	// trace.FormatVTR2.
	Format string
	// BlockBytes is the VTR2 target uncompressed payload per block.
	BlockBytes int
	// Compress is the VTR2 codec: "flate" or "none".
	Compress string
}

// Register installs the format flags on fs: -format, seeded "vtr1" so old
// consumers keep working, plus the VTR2 encoding knobs -block and
// -compress.
func (t *TraceFormat) Register(fs *flag.FlagSet) {
	fs.StringVar(&t.Format, "format", trace.FormatVTR1, "trace file `format`: vtr1 or vtr2 (indexed container)")
	fs.IntVar(&t.BlockBytes, "block", trace.DefaultBlockBytes, "vtr2 target uncompressed `bytes` per container block")
	fs.StringVar(&t.Compress, "compress", "flate", "vtr2 block compression: flate or none")
}

// Validate checks the selected values.
func (t *TraceFormat) Validate() error {
	switch t.Format {
	case trace.FormatVTR1, trace.FormatVTR2:
	default:
		return fmt.Errorf("unknown trace format %q (want vtr1 or vtr2)", t.Format)
	}
	switch t.Compress {
	case "", "flate", "none":
	default:
		return fmt.Errorf("unknown compression %q (want flate or none)", t.Compress)
	}
	return nil
}

// ContainerOptions maps the flags onto the VTR2 writer options.
func (t *TraceFormat) ContainerOptions() trace.ContainerOptions {
	return trace.ContainerOptions{BlockBytes: t.BlockBytes, Codec: t.Compress}
}
