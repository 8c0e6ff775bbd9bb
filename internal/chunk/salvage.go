package chunk

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"sperr/internal/codec"
	"sperr/internal/grid"
)

// This file is the fault-tolerant decode path. The container format makes
// every chunk an independent decode unit (paper Section III-D): each v2
// frame carries its own CRC-32C and each chunk payload records its sample
// count, so damage to one frame — or to the index footer — never has to
// cost more than the bytes it actually touched. The salvage reader
// exploits that: it locates frames through the index footer when the
// footer is intact, falls back to a resynchronizing scan when it is not,
// validates every candidate frame against its checksum and header, and
// reconstructs a usable frame table from the intact frames alone.

// Policy selects how a decode reacts to damaged frames.
type Policy int

const (
	// PolicyFailFast aborts the decode on the first damaged byte — the
	// historical behavior and the default everywhere.
	PolicyFailFast Policy = iota
	// PolicySkip drops damaged chunks: intact chunks decode normally,
	// damaged ones are recorded in the report and never delivered.
	PolicySkip
	// PolicyFill synthesizes fill-valued samples for damaged chunks, so a
	// consumer still observes every chunk exactly once and the assembled
	// volume keeps its full extent.
	PolicyFill
)

// Damage reasons recorded in ChunkOutcome.Reason. One chunk carries at
// most one reason; recovered chunks carry none.
const (
	ReasonMissingFrame = "missing frame"
	ReasonBadCRC       = "frame checksum mismatch"
	ReasonBadHeader    = "frame header mismatch"
	ReasonDecode       = "decode failed"
	ReasonTruncated    = "truncated"
	ReasonFramingLost  = "framing lost"
)

// ChunkOutcome reports the fate of one chunk in a salvage decode.
type ChunkOutcome struct {
	// Index is the chunk's position in container order; Origin its anchor
	// in the volume; Dims its extent.
	Index  int
	Origin [3]int
	Dims   grid.Dims
	// Recovered is true when the chunk's samples were reconstructed from
	// a verified frame. Reason explains a skip ("" when recovered).
	Recovered bool
	Reason    string
	// Offset is the byte offset of the chunk's frame (its length prefix)
	// when a candidate frame was located, -1 otherwise; Length the payload
	// size.
	Offset int64
	Length int
}

// SalvageReport summarizes a fault-tolerant decode: which chunks were
// recovered, which were lost and why, and which byte ranges of the
// container could not be attributed to any verified frame.
type SalvageReport struct {
	// Version is the container format version (1, 2, or 3).
	Version int
	// NumChunks is the container's declared chunk count; Recovered +
	// Skipped always equals it.
	NumChunks int
	Recovered int
	Skipped   int
	// Chunks holds one outcome per chunk, in container order.
	Chunks []ChunkOutcome
	// IndexIntact reports whether the v2 index footer parsed and was used
	// to locate frames (always false for v1, which has no footer).
	IndexIntact bool
	// Resynced reports that the frame scan had to skip bytes to find the
	// next frame — the stream's framing itself was damaged.
	Resynced bool
	// LostRanges lists [start, end) byte ranges of the container that
	// could not be attributed to a verified frame, the fixed header, or an
	// intact footer.
	LostRanges [][2]int64
}

// SkippedIndices returns the indices of the chunks that were not
// recovered, in container order.
func (r *SalvageReport) SkippedIndices() []int {
	var out []int
	for i := range r.Chunks {
		if !r.Chunks[i].Recovered {
			out = append(out, i)
		}
	}
	return out
}

// Degraded reports whether any chunk was lost.
func (r *SalvageReport) Degraded() bool { return r.Skipped > 0 }

// tally finalizes the Recovered/Skipped counters from the per-chunk
// outcomes.
func (r *SalvageReport) tally() {
	r.Recovered, r.Skipped = 0, 0
	for i := range r.Chunks {
		if r.Chunks[i].Recovered {
			r.Recovered++
		} else {
			r.Skipped++
		}
	}
}

// newSalvageReport seeds a report with every chunk marked missing; the
// frame location pass upgrades the chunks it finds candidates for.
func newSalvageReport(version int, chunks []grid.Chunk) *SalvageReport {
	rep := &SalvageReport{
		Version:   version,
		NumChunks: len(chunks),
		Chunks:    make([]ChunkOutcome, len(chunks)),
	}
	for i, ch := range chunks {
		rep.Chunks[i] = ChunkOutcome{
			Index:  i,
			Origin: [3]int{ch.X0, ch.Y0, ch.Z0},
			Dims:   ch.Dims,
			Reason: ReasonMissingFrame,
			Offset: -1,
		}
	}
	return rep
}

// scannedFrame is one self-validated frame located by the resync scan.
type scannedFrame struct {
	off     int64
	payload []byte
	points  int // sample count from the chunk header; 0 when unrecorded
}

// frameValidAt reports whether a verified frame starts at off, returning
// its payload and recorded sample count. Validity means: a plausible
// length prefix, in-bounds payload, a matching CRC-32C (indexed layouts),
// and a chunk header that parses. v1 frames carry no checksum, so the
// header parse is the only self-check — decode failures catch what it
// cannot.
func frameValidAt(stream []byte, off, maxFrame int, l layout) (payload []byte, points int, ok bool) {
	if off+l.overhead > len(stream) {
		return nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(stream[off:]))
	if n <= 0 || n > maxFrame || off+l.overhead+n > len(stream) {
		return nil, 0, false
	}
	payload = stream[off+4 : off+4+n]
	if l.indexed && frameCRC(payload) != binary.LittleEndian.Uint32(stream[off+4+n:]) {
		return nil, 0, false
	}
	meta, err := l.describe(payload)
	if err != nil {
		return nil, 0, false
	}
	return payload, meta.Points, true
}

// scanFrames walks the byte range after the fixed header looking for
// verified frames, resynchronizing byte-by-byte after damage. It returns
// the frames in stream order plus the byte ranges no verified frame
// accounted for. For v2 the CRC makes a false resync accept essentially
// impossible (the index footer's bytes, scanned when the footer itself is
// damaged, never checksum as frames); for v1 the chunk-header parse is the
// filter and the decode stage backstops it.
func scanFrames(stream []byte, l layout, maxFrame int) (frames []scannedFrame, lost [][2]int64, resynced bool) {
	off := fixedHeaderSize
	lostStart := int64(-1)
	flush := func(upto int64) {
		if lostStart >= 0 {
			lost = append(lost, [2]int64{lostStart, upto})
			lostStart = -1
		}
	}
	for off < len(stream) {
		payload, points, ok := frameValidAt(stream, off, maxFrame, l)
		if ok {
			flush(int64(off))
			frames = append(frames, scannedFrame{off: int64(off), payload: payload, points: points})
			off += l.overhead + len(payload)
			continue
		}
		if lostStart < 0 {
			lostStart = int64(off)
			resynced = true
		}
		off++
	}
	flush(int64(len(stream)))
	return frames, lost, resynced
}

// assignFrames maps scanned frames to chunk indices. Frames appear in
// container (chunk) order, so a cursor walks forward; each frame claims
// the first unassigned chunk at or past the cursor whose sample count
// matches the frame header's recorded points (older streams without the
// field claim the cursor position directly). Frames matching no remaining
// chunk are unattributable and their bytes counted lost.
func assignFrames(frames []scannedFrame, chunks []grid.Chunk, l layout, rep *SalvageReport) [][]byte {
	payloads := make([][]byte, len(chunks))
	cursor := 0
	for fi := range frames {
		fr := &frames[fi]
		idx := -1
		if fr.points > 0 {
			for j := cursor; j < len(chunks); j++ {
				if chunks[j].Dims.Len() == fr.points {
					idx = j
					break
				}
			}
		} else if cursor < len(chunks) {
			idx = cursor
		}
		if idx < 0 {
			rep.LostRanges = append(rep.LostRanges,
				[2]int64{fr.off, fr.off + int64(l.overhead+len(fr.payload))})
			continue
		}
		payloads[idx] = fr.payload
		rep.Chunks[idx].Offset = fr.off
		rep.Chunks[idx].Length = len(fr.payload)
		rep.Chunks[idx].Reason = ""
		cursor = idx + 1
	}
	return payloads
}

// locateFrames finds each chunk's candidate frame payload: through the
// index footer when the layout has one and it is intact (frames then
// verify individually against their indexed CRC), otherwise through the
// resynchronizing scan. Chunks without a verified candidate keep their
// seeded "missing frame" reason; chunks whose indexed frame fails
// verification get a specific reason. The returned slice holds one
// payload per chunk, nil where none verified; the aggregates are the
// footer's, meaningful only when rep.IndexIntact.
func locateFrames(stream []byte, l layout, chunks []grid.Chunk, rep *SalvageReport) ([][]byte, aggregates) {
	if l.indexed {
		if entries, codecIDs, agg, err := readIndex(stream, l, len(chunks)); err == nil {
			rep.IndexIntact = true
			payloads := make([][]byte, len(chunks))
			for i, e := range entries {
				p := stream[e.offset+4 : e.offset+4+uint64(e.length)]
				rep.Chunks[i].Offset = int64(e.offset)
				rep.Chunks[i].Length = int(e.length)
				lostRange := [2]int64{int64(e.offset), int64(e.offset) + int64(l.overhead) + int64(e.length)}
				if frameCRC(p) != e.crc {
					rep.Chunks[i].Reason = ReasonBadCRC
					rep.LostRanges = append(rep.LostRanges, lostRange)
					continue
				}
				meta, err := l.describe(p)
				if err != nil || (meta.Points != 0 && meta.Points != chunks[i].Dims.Len()) ||
					(codecIDs != nil && (len(p) < 1 || codec.CodecID(p[0]) != codecIDs[i])) {
					rep.Chunks[i].Reason = ReasonBadHeader
					rep.LostRanges = append(rep.LostRanges, lostRange)
					continue
				}
				payloads[i] = p
				rep.Chunks[i].Reason = ""
			}
			return payloads, agg
		}
	}
	frames, lost, resynced := scanFrames(stream, l, maxFrameBytes(chunks))
	rep.LostRanges = append(rep.LostRanges, lost...)
	rep.Resynced = resynced
	return assignFrames(frames, chunks, l, rep), aggregates{}
}

// Audit verifies a container without decoding any samples: every frame is
// checked against its CRC (v2+) and its chunk header cross-checked against
// the geometry, through the index footer or — when the footer or framing
// is damaged — the resynchronizing scan. In the returned report,
// Recovered means "verified recoverable"; the fsck tool prints it as a
// damage map. The error is non-nil only when the fixed header itself is
// unusable (nothing attributable without the geometry).
func Audit(stream []byte) (*SalvageReport, error) {
	l, _, _, chunks, err := parseFixedHeader(stream)
	if err != nil {
		return nil, err
	}
	rep := newSalvageReport(l.version, chunks)
	payloads, _ := locateFrames(stream, l, chunks, rep)
	for i := range payloads {
		if payloads[i] != nil {
			rep.Chunks[i].Recovered = true
		}
	}
	rep.tally()
	return rep, nil
}

// Salvage reconstructs as much of the volume as the stream's intact
// frames allow. Chunks whose frames are damaged or missing hold fill in
// the returned volume (every sample of the chunk), and the report says
// exactly which chunks those are and why. The error is non-nil only when
// the fixed header is unusable; all frame- and footer-level damage is
// absorbed into the report.
func Salvage(stream []byte, fill float64, workers int) (*grid.Volume, *SalvageReport, error) {
	l, volDims, _, chunks, err := parseFixedHeader(stream)
	if err != nil {
		return nil, nil, err
	}
	rep := newSalvageReport(l.version, chunks)
	payloads, _ := locateFrames(stream, l, chunks, rep)

	vol := grid.NewVolume(volDims)
	for i := range vol.Data {
		vol.Data[i] = fill
	}
	// Decode the candidates in parallel. Outcome slots are per-index, so
	// workers write disjoint report entries and disjoint volume regions.
	_ = forEachChunkScratch(len(chunks), workers, func(i int, ws *workerScratch) error {
		if payloads[i] == nil {
			return nil
		}
		ch := chunks[i]
		data, err := l.decode(payloads[i], ch.Dims, ws.codec)
		if err != nil {
			rep.Chunks[i].Reason = ReasonDecode
			return nil
		}
		vol.InsertSlice(data, ch.Dims, ch.X0, ch.Y0, ch.Z0)
		rep.Chunks[i].Recovered = true
		return nil
	})
	rep.tally()
	return vol, rep, nil
}

// Repair rewrites a damaged container as a clean stream: verified frames
// are kept byte-for-byte (so their chunks later decode bit-identically),
// unrecoverable chunks are replaced by placeholder frames encoding
// all-zero samples, and the index footer is regenerated from scratch. v1
// input is upgraded to v2 in the process; v3 input stays v3, its frame
// codec tags preserved and placeholders SPERR-coded. The report describes
// the input's damage (Recovered = frames kept verbatim). Repair fails
// only when the fixed header is unusable or no frame at all verified
// (there is nothing to anchor the coding parameters to).
func Repair(stream []byte) ([]byte, *SalvageReport, error) {
	l, volDims, chunkDims, chunks, err := parseFixedHeader(stream)
	if err != nil {
		return nil, nil, err
	}
	rep := newSalvageReport(l.version, chunks)
	payloads, agg := locateFrames(stream, l, chunks, rep)

	// Unchecksummed frames can carry undetectably damaged bytes past the
	// header-level checks. A repaired container must strict-decode, so
	// prove each kept frame by decoding it; failures become placeholders
	// like any other lost chunk.
	if !l.indexed {
		scratch := codec.NewScratch()
		for i := range payloads {
			if payloads[i] == nil {
				continue
			}
			if _, err := l.decode(payloads[i], chunks[i].Dims, scratch); err != nil {
				payloads[i] = nil
				rep.Chunks[i].Reason = ReasonDecode
			}
		}
	}

	// Anchor the container-wide coding parameters: the intact footer's
	// aggregates when available, else the first verified frame's header.
	haveAgg := rep.IndexIntact
	if !haveAgg {
		for _, p := range payloads {
			if p == nil {
				continue
			}
			if meta, err := l.describe(p); err == nil {
				agg = aggregates{mode: meta.Mode, tol: meta.Tol}
				haveAgg = true
				break
			}
		}
	}
	if !haveAgg {
		return nil, rep, fmt.Errorf("%w: no verified frame to repair from", ErrCorrupt)
	}

	// Placeholder coding parameters: the mode must match the container's
	// (Describe and the aggregates are container-wide), the budget barely
	// matters — placeholders encode constant zero, which costs almost
	// nothing at any setting. Placeholders are always SPERR-coded, so an
	// adaptive container's placeholders fall back to plain PWE.
	params := codec.Params{Mode: agg.mode}
	switch agg.mode {
	case codec.ModePWE:
		params.Tol = agg.tol
	case codec.ModeBPP:
		params.BitsPerPoint = 1
	case codec.ModeRMSE:
		params.TargetRMSE = 1
	case codec.ModeAdaptive:
		params.Mode = codec.ModePWE
		params.Tol = agg.tol
		if !(params.Tol > 0) {
			params.Tol = 1
		}
	}

	out := writeLayout(l.tagged)
	buf := bytes.NewBuffer(make([]byte, 0, len(stream)))
	// Writes to a bytes.Buffer cannot fail, so the emitter's errors are
	// unreachable here.
	fw, _ := newFrameWriter(buf, out, volDims, chunkDims, len(chunks))
	codecIDs := make([]codec.CodecID, len(chunks))
	agg.speckBits, agg.outlierBits = 0, 0
	for i, ch := range chunks {
		payload := payloads[i]
		if payload == nil {
			zero := make([]float64, ch.Dims.Len())
			sperr, _, err := codec.EncodeChunk(zero, ch.Dims, params)
			if err != nil {
				return nil, rep, fmt.Errorf("chunk: repair placeholder %d: %w", i, err)
			}
			payload = append(out.stub(codec.CodecSPERR), sperr...)
		} else {
			rep.Chunks[i].Recovered = true
		}
		if out.tagged {
			codecIDs[i] = codec.CodecID(payload[0])
		}
		if meta, err := out.describe(payload); err == nil {
			agg.speckBits += meta.SpeckBits
			agg.outlierBits += meta.OutlierBits
		}
		_ = fw.frame(payload, frameCRC(payload))
	}
	_, _ = fw.finish(codecIDs, agg)
	rep.tally()
	return buf.Bytes(), rep, nil
}
