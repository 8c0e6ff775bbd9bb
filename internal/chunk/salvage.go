package chunk

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

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
// reconstructs a usable frame table from the intact frames alone. Format
// v1 had no checksums, so nothing here can salvage it: Repair upgrades an
// intact v1 stream to v2 or refuses it (upgradeV1).

// Damage reasons recorded in ChunkOutcome.Reason. One chunk carries at
// most one reason; recovered chunks carry none.
const (
	ReasonMissingFrame = "missing frame"
	ReasonBadCRC       = "frame checksum mismatch"
	ReasonBadHeader    = "frame header mismatch"
	ReasonDecode       = "decode failed"
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
	// Version is the input's container format version: 2 or 3, or 1 on
	// the report of a Repair that upgraded a retired v1 stream.
	Version int
	// NumChunks is the container's declared chunk count; Recovered +
	// Skipped always equals it.
	NumChunks int
	Recovered int
	Skipped   int
	// Chunks holds one outcome per chunk, in container order.
	Chunks []ChunkOutcome
	// IndexIntact reports whether the index footer parsed and was used to
	// locate frames (false for an upgraded v1 stream, which has none).
	IndexIntact bool
	// Resynced reports that the frame scan had to skip bytes to find the
	// next frame — the stream's framing itself was damaged.
	Resynced bool
	// LostRanges lists [start, end) byte ranges of the container that
	// could not be attributed to a verified frame, the fixed header, or an
	// intact footer, sorted by start; touching ranges are merged.
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
// length prefix, in-bounds payload, a matching CRC-32C, and a chunk
// header that parses.
func frameValidAt(stream []byte, off, maxFrame int, l layout) (payload []byte, points int, ok bool) {
	if off+frameOverhead > len(stream) {
		return nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(stream[off:]))
	if n <= 0 || n > maxFrame || off+frameOverhead+n > len(stream) {
		return nil, 0, false
	}
	payload = stream[off+4 : off+4+n]
	if frameCRC(payload) != binary.LittleEndian.Uint32(stream[off+4+n:]) {
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
// accounted for. The CRC makes a false resync accept essentially
// impossible (the index footer's bytes, scanned when the footer itself is
// damaged, never checksum as frames).
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
			off += frameOverhead + len(payload)
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

// assignFrames maps scanned frames to chunk indices. A frame is
// attributed only where its position is certain:
//   - frames contiguous from the fixed header are chunks 0, 1, ...; a
//     frame that fails verification does not break that chain when its
//     length prefix spans exactly to the next verified frame, which then
//     is the chunk after it;
//   - when the tail locates the footer (indexOff > 0), frames contiguous
//     back from it are chunks n-1, n-2, ...;
//   - any other frame lies between two attributed ones, and is attributed
//     only by a sample count that no other chunk between them shares.
//
// Past a lost byte range, sample count alone would shift every later frame
// of an equal-sized chunk one slot early. A frame no rule places, or whose
// recorded count contradicts its place, is counted lost, and its chunk
// keeps "missing frame".
func assignFrames(stream []byte, frames []scannedFrame, chunks []grid.Chunk, indexOff int64, rep *SalvageReport) [][]byte {
	n := len(chunks)
	end := func(f int) int64 { return frames[f].off + frameOverhead + int64(len(frames[f].payload)) }
	fits := func(f, c int) bool { p := frames[f].points; return p == 0 || p == chunks[c].Dims.Len() }
	owner := make([]int, len(frames))
	for f := range owner {
		owner[f] = -1
	}
	// The front chain places frames[:head] and decides chunks[:next]; at
	// is where chunk next's frame starts.
	head, next := 0, 0
	for at := int64(fixedHeaderSize); head < len(frames) && next < n; next++ {
		if f := frames[head].off; f != at {
			// Chunk next's frame is damaged; its prefix may still bridge it.
			if at+frameOverhead > f || at+frameOverhead+int64(binary.LittleEndian.Uint32(stream[at:])) != f {
				break
			}
			at = f
			continue
		}
		if !fits(head, next) {
			break
		}
		owner[head], at = next, end(head)
		head++
	}
	if indexOff > 0 {
		f := len(frames) - 1
		for f >= head && frames[f].off >= indexOff {
			f--
		}
		for c, at := n-1, indexOff; f >= head && c >= next && end(f) == at && fits(f, c); f, c = f-1, c-1 {
			owner[f], at = c, frames[f].off
		}
	}
	lo := next - 1
	for f := head; f < len(frames); f++ {
		if owner[f] >= 0 {
			lo = owner[f]
			continue
		}
		hi := n
		for g := f + 1; g < len(frames); g++ {
			if owner[g] >= 0 {
				hi = owner[g]
				break
			}
		}
		for c := lo + 1; c < hi && frames[f].points > 0; c++ {
			if chunks[c].Dims.Len() != frames[f].points {
				continue
			}
			if owner[f] >= 0 {
				owner[f] = -1 // shared: the count does not tell
				break
			}
			owner[f] = c
		}
		if owner[f] >= 0 {
			lo = owner[f]
		}
	}
	payloads := make([][]byte, n)
	for f, c := range owner {
		fr := &frames[f]
		if c < 0 {
			rep.LostRanges = append(rep.LostRanges, [2]int64{fr.off, end(f)})
			continue
		}
		payloads[c] = fr.payload
		rep.Chunks[c].Offset = fr.off
		rep.Chunks[c].Length = len(fr.payload)
		rep.Chunks[c].Reason = ""
	}
	return payloads
}

// locateFrames finds each chunk's candidate frame payload: through the
// index footer when it is intact (frames then verify individually against
// their indexed CRC), otherwise through the resynchronizing scan. Chunks
// without a verified candidate keep their seeded "missing frame" reason;
// chunks whose indexed frame fails verification get a specific reason.
// The returned slice holds one payload per chunk, nil where none
// verified; the aggregates are the footer's, meaningful only when
// rep.IndexIntact. rep.LostRanges comes out sorted and merged.
func locateFrames(stream []byte, l layout, chunks []grid.Chunk, rep *SalvageReport) ([][]byte, aggregates) {
	defer func() { rep.LostRanges = mergeRanges(rep.LostRanges) }()
	if entries, codecIDs, agg, err := readIndex(stream, l, len(chunks)); err == nil {
		rep.IndexIntact = true
		payloads := make([][]byte, len(chunks))
		for i, e := range entries {
			p := stream[e.offset+4 : e.offset+4+uint64(e.length)]
			rep.Chunks[i].Offset = int64(e.offset)
			rep.Chunks[i].Length = int(e.length)
			lostRange := [2]int64{int64(e.offset), int64(e.offset) + frameOverhead + int64(e.length)}
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
	frames, lost, resynced := scanFrames(stream, l, maxFrameBytes(chunks))
	rep.LostRanges = append(rep.LostRanges, lost...)
	rep.Resynced = resynced
	// The tail alone still places the footer when its magic and offset
	// check out and the footer it points at has this geometry's exact size.
	indexOff := int64(-1)
	if off, err := locateIndex(stream, l); err == nil && len(stream)-int(off) == l.indexSize(len(chunks)) {
		indexOff = int64(off)
	}
	return assignFrames(stream, frames, chunks, indexOff, rep), aggregates{}
}

// mergeRanges sorts byte ranges by start and folds overlapping or touching
// ones together, so a damage map reads in file order.
func mergeRanges(rs [][2]int64) [][2]int64 {
	sort.Slice(rs, func(i, j int) bool { return rs[i][0] < rs[j][0] })
	out := rs[:0]
	for _, r := range rs {
		if n := len(out); n > 0 && r[0] <= out[n-1][1] {
			out[n-1][1] = max(out[n-1][1], r[1])
			continue
		}
		out = append(out, r)
	}
	return out
}

// Audit verifies a container without decoding any samples: every frame is
// checked against its CRC and its chunk header cross-checked against
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

// Salvage decodes as much of the container as the stream's intact frames
// allow and delivers every chunk to fn exactly once: its decoded samples
// when its frame verified and decoded, fill-valued samples otherwise. fn
// runs on the calling goroutine, one chunk at a time, and must not keep
// data. The report says exactly which chunks were lost and why. The error
// is the fixed header's when it is unusable, else the first fn error,
// which stops the decode; all frame- and footer-level damage is absorbed
// into the report.
func Salvage(stream []byte, fill float64, workers int, fn func(index int, ch grid.Chunk, data []float64) error) (*SalvageReport, error) {
	l, _, _, chunks, err := parseFixedHeader(stream)
	if err != nil {
		return nil, err
	}
	rep := newSalvageReport(l.version, chunks)
	payloads, _ := locateFrames(stream, l, chunks, rep)
	err = decodeEach(context.TODO(), len(chunks), workers, func(i int, s *codec.Scratch) ([]float64, error) {
		if payloads[i] == nil {
			return nil, nil // lost: locateFrames has recorded why
		}
		return l.decode(payloads[i], chunks[i].Dims, s)
	}, func(i int, data []float64, err error) error {
		ch := chunks[i]
		switch {
		case err != nil:
			rep.Chunks[i].Reason = ReasonDecode
		case payloads[i] != nil:
			rep.Chunks[i].Recovered = true
			return fn(i, ch, data)
		}
		data = make([]float64, ch.Dims.Len())
		for j := range data {
			data[j] = fill
		}
		return fn(i, ch, data)
	})
	rep.tally()
	return rep, err
}

// Repair rewrites a damaged container as a clean stream: verified frames
// are kept byte-for-byte (so their chunks later decode bit-identically),
// unrecoverable chunks are replaced by placeholder frames encoding
// all-zero samples, and the index footer is regenerated from scratch. v3
// input stays v3, its frame codec tags preserved and placeholders
// SPERR-coded. A retired v1 stream is upgraded to v2 instead (upgradeV1).
// The report describes the input's damage (Recovered = frames kept
// verbatim). Repair fails only when the fixed header is unusable, when no
// frame at all verified (there is nothing to anchor the coding parameters
// to), or when a v1 upgrade meets a bad chunk.
func Repair(stream []byte) ([]byte, *SalvageReport, error) {
	l, volDims, chunkDims, chunks, err := parseFixedHeader(stream)
	if errors.Is(err, errRetiredV1) {
		return upgradeV1(stream)
	}
	if err != nil {
		return nil, nil, err
	}
	rep := newSalvageReport(l.version, chunks)
	payloads, agg := locateFrames(stream, l, chunks, rep)

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

	buf := bytes.NewBuffer(make([]byte, 0, len(stream)))
	// Writes to a bytes.Buffer cannot fail, so the emitter's errors are
	// unreachable here.
	fw, _ := newFrameWriter(buf, l, volDims, chunkDims, len(chunks))
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
			payload = append(l.stub(codec.CodecSPERR), sperr...)
		} else {
			rep.Chunks[i].Recovered = true
		}
		if l.tagged {
			codecIDs[i] = codec.CodecID(payload[0])
		}
		if meta, err := l.describe(payload); err == nil {
			agg.speckBits += meta.SpeckBits
			agg.outlierBits += meta.OutlierBits
		}
		_ = fw.frame(payload, frameCRC(payload))
	}
	_, _ = fw.finish(codecIDs, agg)
	rep.tally()
	return buf.Bytes(), rep, nil
}

// upgradeV1 rewrites a retired v1 stream (see retiredV1) as v2, Repair's
// one way in to v1 bytes. Without checksums nothing tells damage from
// data, so it salvages nothing: the first frame adoptV1Frame refuses fails
// the upgrade as ErrCorrupt. The frames are re-emitted verbatim with their
// CRCs, under a footer whose aggregates are summed from the chunk headers.
func upgradeV1(stream []byte) ([]byte, *SalvageReport, error) {
	volDims, chunkDims, chunks, err := parseGeometry(stream)
	if err != nil {
		return nil, nil, err
	}
	rep := newSalvageReport(retiredV1.version, chunks)
	c := &container{layout: writeLayout(false), volDims: volDims, chunkDims: chunkDims, chunks: chunks,
		payloads: make([][]byte, len(chunks)), crcs: make([]uint32, len(chunks))}
	scratch := codec.NewScratch()
	maxFrame := maxFrameBytes(chunks)
	off := fixedHeaderSize
	for i := range chunks {
		n, err := c.adoptV1Frame(stream, off, i, maxFrame, scratch)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: v1 chunk %d: %v", ErrCorrupt, i, err)
		}
		rep.Chunks[i].Recovered, rep.Chunks[i].Reason = true, ""
		rep.Chunks[i].Offset, rep.Chunks[i].Length = int64(off), n
		off += 4 + n
	}
	if off != len(stream) {
		return nil, nil, fmt.Errorf("%w: %d bytes after the last v1 frame", ErrCorrupt, len(stream)-off)
	}
	pick := make([]*container, len(chunks))
	for i := range pick {
		pick[i] = c
	}
	rep.tally()
	return c.rebuild(pick), rep, nil
}

// adoptV1Frame checks the v1 frame at off as chunk i and takes its
// payload, a bare SPERR stream, into c, returning the payload length. The
// upgraded container must strict-decode, so the payload must fit the
// streaming Reader's frame bound, its chunk header must parse and match
// the chunk's geometry and chunk 0's mode and tolerance, and it must
// decode. A payload flip that still decodes cannot be seen and is carried
// into the upgrade.
func (c *container) adoptV1Frame(stream []byte, off, i, maxFrame int, s *codec.Scratch) (int, error) {
	if len(stream)-off < 4 {
		return 0, errors.New("truncated length prefix")
	}
	n := int(binary.LittleEndian.Uint32(stream[off:]))
	if n > len(stream)-off-4 || n > maxFrame {
		return 0, fmt.Errorf("payload of %d bytes overruns the stream or the frame bound %d", n, maxFrame)
	}
	p := stream[off+4 : off+4+n]
	meta, err := codec.DescribeChunk(p)
	if err != nil {
		return 0, err
	}
	dims := c.chunks[i].Dims
	if meta.Points != 0 && meta.Points != dims.Len() {
		return 0, fmt.Errorf("header records %d samples, geometry says %d", meta.Points, dims.Len())
	}
	if i > 0 && (meta.Mode != c.agg.mode || meta.Tol != c.agg.tol) {
		return 0, fmt.Errorf("coded %v/%g, chunk 0 %v/%g", meta.Mode, meta.Tol, c.agg.mode, c.agg.tol)
	}
	if _, err := codec.DecodeChunkScratch(p, dims, s); err != nil {
		return 0, err
	}
	c.agg.mode, c.agg.tol = meta.Mode, meta.Tol
	c.agg.speckBits += meta.SpeckBits
	c.agg.outlierBits += meta.OutlierBits
	c.payloads[i], c.crcs[i] = p, frameCRC(p)
	return n, nil
}
