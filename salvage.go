package sperr

import (
	"bytes"
	"math"

	"sperr/internal/chunk"
	"sperr/internal/grid"
)

// SalvageReport describes the outcome of a fault-tolerant decode: one
// ChunkOutcome per chunk (recovered, or skipped with a reason and the
// frame's byte range), whether the index footer was intact, and which
// byte ranges of the container could not be attributed to any verified
// frame.
type SalvageReport = chunk.SalvageReport

// ChunkOutcome is one chunk's entry in a SalvageReport.
type ChunkOutcome = chunk.ChunkOutcome

// DecompressSalvage reconstructs as much of a damaged stream as its
// intact frames allow. Where Decompress fails on the first damaged byte,
// DecompressSalvage locates every frame that still verifies — through the
// index footer when it survives, or by a resynchronizing scan of the
// frame region when the footer or the framing itself is damaged — and
// decodes exactly those; the samples of lost chunks are NaN. The report
// says which chunks were recovered and which were lost, and why. The
// error is non-nil only when the container's fixed header is unusable
// (without the geometry nothing can be attributed); all frame- and
// footer-level damage is absorbed into the report.
func DecompressSalvage(stream []byte) ([]float64, [3]int, *SalvageReport, error) {
	return DecompressSalvageWorkers(stream, math.NaN(), 0)
}

// DecompressSalvageWorkers is DecompressSalvage with an explicit fill
// value for lost chunks' samples and a worker budget (<= 0 means
// GOMAXPROCS).
func DecompressSalvageWorkers(stream []byte, fill float64, workers int) ([]float64, [3]int, *SalvageReport, error) {
	hdr, err := chunk.NewReader(bytes.NewReader(stream), 0) // parses the fixed header only
	if err != nil {
		return nil, [3]int{}, nil, err
	}
	vol := grid.NewVolume(hdr.VolumeDims())
	rep, err := chunk.Salvage(stream, fill, workers, func(_ int, ch grid.Chunk, data []float64) error {
		vol.InsertSlice(data, ch.Dims, ch.X0, ch.Y0, ch.Z0)
		return nil
	})
	if err != nil {
		return nil, [3]int{}, nil, err
	}
	return vol.Data, [3]int{vol.Dims.NX, vol.Dims.NY, vol.Dims.NZ}, rep, nil
}

// Audit verifies a stream's integrity without decoding any samples: every
// frame is checked against its CRC-32C and its chunk
// header cross-checked against the geometry. In the returned report,
// Recovered means "verified recoverable". The `sperr fsck` command is a
// thin wrapper over this.
func Audit(stream []byte) (*SalvageReport, error) {
	return chunk.Audit(stream)
}

// Repair rewrites a damaged stream as a clean container of its own
// version: frames that verify are kept byte-for-byte (their chunks later
// decompress bit-identically), lost chunks are replaced by placeholder
// frames encoding all-zero samples, and the index footer is regenerated.
// Repair is also the only reader of the retired container v1: it upgrades
// an intact v1 stream to v2, decoding every frame to prove it, and fails
// with ErrCorrupt naming the first bad chunk rather than salvaging around
// it (v1 frames carry no checksums, so damage cannot be told from data).
// The report describes the input's damage. Repair fails when the fixed
// header is unusable or no frame at all verified. The `sperr repair`
// command wraps this.
func Repair(stream []byte) ([]byte, *SalvageReport, error) {
	return chunk.Repair(stream)
}
