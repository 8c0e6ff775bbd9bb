// Codec backend registry. The paper evaluates SPERR against SZ, ZFP,
// TTHRESH, and MGARD; this file promotes those baselines (and the SPERR
// pipeline itself) to interchangeable backends behind one interface, so
// the chunk container can carry any of them — and, in ModeAdaptive, pick
// the cheapest per chunk (Tao et al.'s online selection result). The
// interface cut follows SZ3's modular-pipeline design: a backend owns its
// stream format end to end; the container only frames it and records which
// backend wrote it in a one-byte tag (container v3).

package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"sperr/internal/grid"
)

// CodecID identifies a codec backend, both in the registry and on the
// wire: container v3 frames carry it as a one-byte tag in front of the
// backend stream. Values are frozen — they are part of the stream format.
type CodecID uint8

const (
	// CodecSPERR is the wavelet + SPECK pipeline of this repository, the
	// default backend. Its zero value keeps pre-v3 Params unchanged.
	CodecSPERR CodecID = iota
	// CodecSZ is the SZ3-style interpolation-predictive baseline.
	CodecSZ
	// CodecZFP is the ZFP-style block-transform baseline.
	CodecZFP
	// CodecTTHRESH is the TTHRESH HOSVD baseline wrapped in a point-wise
	// correction envelope (TTHRESH itself has no PWE mode).
	CodecTTHRESH
	// CodecMGARD is the MGARD-style multilevel baseline.
	CodecMGARD

	numCodecs
)

var codecNames = [numCodecs]string{"sperr", "sz", "zfp", "tthresh", "mgard"}

// String returns the codec's canonical lower-case name.
func (c CodecID) String() string {
	if c < numCodecs {
		return codecNames[c]
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// ParseCodecName maps a canonical name back to its CodecID. The empty
// string parses as CodecSPERR (the default backend).
func ParseCodecName(name string) (CodecID, bool) {
	if name == "" {
		return CodecSPERR, true
	}
	for id, n := range codecNames {
		if n == name {
			return CodecID(id), true
		}
	}
	return 0, false
}

// Backend is one codec implementation behind the container. A backend
// owns its stream format: Encode and Decode round-trip it, Describe reads
// its self-describing header without decoding the payload, and Validate
// rejects Params the backend cannot honor. Implementations must be
// stateless values (safe for concurrent use); per-call temporaries come
// from the Scratch arena when the backend supports it (nil always works).
type Backend interface {
	// ID returns the backend's wire tag.
	ID() CodecID
	// Name returns the backend's canonical name.
	Name() string
	// Validate rejects parameter combinations the backend cannot honor.
	Validate(p Params) error
	// Encode compresses one chunk (row-major, extent dims). The returned
	// stream is freshly allocated and caller-owned.
	Encode(data []float64, dims grid.Dims, p Params, s *Scratch) ([]byte, *Stats, error)
	// Decode reconstructs a chunk. dims must match the encoding call; a
	// stream whose embedded geometry disagrees fails as ErrCorrupt before
	// any decode-sized allocation.
	Decode(stream []byte, dims grid.Dims, s *Scratch) ([]float64, error)
	// Describe parses the stream's header without reconstructing data.
	Describe(stream []byte) (*StreamMeta, error)
}

// backends is the registry, indexed by CodecID.
var backends = [numCodecs]Backend{
	sperrBackend{},
	szBackend{},
	zfpBackend{},
	tthreshBackend{},
	mgardBackend{},
}

// Lookup returns the backend registered for id.
func Lookup(id CodecID) (Backend, bool) {
	if id < numCodecs {
		return backends[id], true
	}
	return nil, false
}

// Backends returns every registered backend in CodecID order.
func Backends() []Backend {
	out := make([]Backend, numCodecs)
	copy(out[:], backends[:])
	return out
}

// sperrBackend adapts the package's own pipeline to the Backend interface.
type sperrBackend struct{}

func (sperrBackend) ID() CodecID { return CodecSPERR }

func (sperrBackend) Name() string { return "sperr" }

func (sperrBackend) Validate(p Params) error {
	if p.Mode == ModeAdaptive {
		return fmt.Errorf("codec: sperr backend codes concrete modes, not ModeAdaptive")
	}
	p.Codec = CodecSPERR
	return p.Validate()
}

func (sperrBackend) Encode(data []float64, dims grid.Dims, p Params, s *Scratch) ([]byte, *Stats, error) {
	p.Codec = CodecSPERR
	out, st, err := EncodeChunkScratch(data, dims, p, s)
	if st != nil {
		st.Codec = CodecSPERR
	}
	return out, st, err
}

func (sperrBackend) Decode(stream []byte, dims grid.Dims, s *Scratch) ([]float64, error) {
	return DecodeChunkScratch(stream, dims, s)
}

func (sperrBackend) Describe(stream []byte) (*StreamMeta, error) {
	return DescribeChunk(stream)
}

// --- shared baseline helpers -------------------------------------------

// baselineValidate is the Params contract every non-SPERR backend shares:
// the baselines implement a single point-wise-bounded mode and none of the
// SPERR-specific knobs.
func baselineValidate(name string, p Params) error {
	if p.Mode != ModePWE {
		return fmt.Errorf("codec: %s backend supports ModePWE only", name)
	}
	if !(p.Tol > 0) {
		return fmt.Errorf("codec: %s backend requires Tol > 0", name)
	}
	return nil
}

// checkChunk is the one per-chunk input gate every backend's encode and
// EncodeAdaptive pass through. It rejects non-finite samples, which would
// void every backend's point-wise error contract (NaN compares false
// against any bound), and, in the same pass, finds max|x|: a point-wise
// tolerance below ulp(max|x|) is refused with ErrToleranceBelowResolution,
// because no correction can land that finely (DESIGN.md section 4, "The
// resolution floor").
func checkChunk(data []float64, p Params) error {
	var maxAbs float64
	for i, v := range data {
		a := math.Abs(v)
		if !(a <= math.MaxFloat64) {
			return fmt.Errorf("codec: non-finite value %g at index %d", v, i)
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	if p.Mode != ModePWE && p.Mode != ModeAdaptive {
		return nil
	}
	if u := ulp(maxAbs); p.Tol < u {
		return fmt.Errorf("%w: tolerance %g is below %g, the float64 spacing at the chunk's largest magnitude %g",
			ErrToleranceBelowResolution, p.Tol, u, maxAbs)
	}
	return nil
}

// ulp returns the float64 spacing at x >= 0: the gap from x to the next
// float64 away from zero.
func ulp(x float64) float64 {
	if x == 0 {
		return math.SmallestNonzeroFloat64
	}
	_, e := math.Frexp(x)
	return math.Ldexp(1, max(e-53, -1074))
}

// baselineStats is the Stats a non-SPERR backend can honestly report: the
// coder-internal bit splits do not apply.
func baselineStats(id CodecID, points, totalBytes int) *Stats {
	return &Stats{Codec: id, NumPoints: points, TotalBytes: totalBytes}
}

// safePoints computes dims.Len with overflow checking, for headers whose
// extents arrive from the wire.
func safePoints(d grid.Dims) (int, bool) {
	if !d.Valid() {
		return 0, false
	}
	xy := uint64(d.NX) * uint64(d.NY) // exact: each extent fits in 32 bits
	if xy == 0 || xy > math.MaxInt64/uint64(d.NZ) {
		return 0, false
	}
	n := xy * uint64(d.NZ)
	if n > math.MaxInt64 {
		return 0, false
	}
	return int(n), true
}

// wireDims reads three little-endian u32 extents.
func wireDims(b []byte) grid.Dims {
	return grid.Dims{
		NX: int(binary.LittleEndian.Uint32(b[0:])),
		NY: int(binary.LittleEndian.Uint32(b[4:])),
		NZ: int(binary.LittleEndian.Uint32(b[8:])),
	}
}
