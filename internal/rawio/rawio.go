// Package rawio reads and writes the raw little-endian float arrays used
// to exchange volumes with other tools (the format of SDRBench files and
// of the reference SPERR CLI).
package rawio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// ReadFloats loads a raw little-endian float file. width is 4 (float32)
// or 8 (float64); the file size must be an exact multiple of width.
func ReadFloats(path string, width int) ([]float64, error) {
	if width != 4 && width != 8 {
		return nil, fmt.Errorf("rawio: width must be 4 or 8, got %d", width)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeFloats(raw, width)
}

// DecodeFloats converts raw little-endian bytes into float64 values.
func DecodeFloats(raw []byte, width int) ([]float64, error) {
	if width != 4 && width != 8 {
		return nil, fmt.Errorf("rawio: width must be 4 or 8, got %d", width)
	}
	if len(raw)%width != 0 {
		return nil, fmt.Errorf("rawio: %d bytes is not a multiple of %d", len(raw), width)
	}
	out := make([]float64, len(raw)/width)
	GetFloats(out, raw, width)
	return out, nil
}

// EncodeFloats converts values to raw little-endian bytes at the given
// width (4 narrows to float32).
func EncodeFloats(data []float64, width int) ([]byte, error) {
	if width != 4 && width != 8 {
		return nil, fmt.Errorf("rawio: width must be 4 or 8, got %d", width)
	}
	raw := make([]byte, len(data)*width)
	PutFloats(raw, data, width)
	return raw, nil
}

// WriteFloats writes values as a raw little-endian float file.
func WriteFloats(path string, data []float64, width int) error {
	raw, err := EncodeFloats(data, width)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// FloatReader streams float64 values out of an io.Reader carrying raw
// little-endian floats, so arbitrarily large files can feed a pipeline
// without ever materializing the whole array.
type FloatReader struct {
	r     io.Reader
	width int
	buf   []byte
	have  int // pending bytes at the front of buf (a partial value)
}

// NewFloatReader wraps r; width is 4 (float32) or 8 (float64).
func NewFloatReader(r io.Reader, width int) (*FloatReader, error) {
	if width != 4 && width != 8 {
		return nil, fmt.Errorf("rawio: width must be 4 or 8, got %d", width)
	}
	return &FloatReader{r: r, width: width}, nil
}

// Read fills dst with up to len(dst) values and returns how many it
// decoded. It returns io.EOF at a clean end of stream, and
// io.ErrUnexpectedEOF when the stream ends mid-value.
func (fr *FloatReader) Read(dst []float64) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	want := len(dst)*fr.width - fr.have
	if cap(fr.buf) < fr.have+want {
		grown := make([]byte, fr.have+want)
		copy(grown, fr.buf[:fr.have])
		fr.buf = grown
	}
	fr.buf = fr.buf[:fr.have+want]
	n, err := io.ReadFull(fr.r, fr.buf[fr.have:])
	total := fr.have + n
	vals := total / fr.width
	GetFloats(dst[:vals], fr.buf, fr.width)
	rem := total - vals*fr.width
	copy(fr.buf, fr.buf[total-rem:total])
	fr.have = rem
	if err == io.ErrUnexpectedEOF && rem == 0 && vals > 0 {
		err = nil // clean value boundary; report EOF on the next call
	}
	if err == io.EOF && rem > 0 {
		err = io.ErrUnexpectedEOF
	}
	return vals, err
}

// WriteFloatsAt writes vals as raw little-endian floats into w at byte
// offset off. buf is an optional scratch buffer (grown as needed) so
// repeated scattered writes don't allocate; the grown buffer is returned.
func WriteFloatsAt(w io.WriterAt, vals []float64, width int, off int64, buf []byte) ([]byte, error) {
	if width != 4 && width != 8 {
		return buf, fmt.Errorf("rawio: width must be 4 or 8, got %d", width)
	}
	need := len(vals) * width
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	PutFloats(buf, vals, width)
	_, err := w.WriteAt(buf, off)
	return buf, err
}

// PutFloats serializes vals into dst as little-endian floats of the given
// width, 8 or 4 (4 narrows to float32); dst must hold len(vals)·width
// bytes. It is the one float serializer: files, peer frames and region
// responses all go through it, four samples per step.
func PutFloats(dst []byte, vals []float64, width int) {
	le := binary.LittleEndian
	if width == 4 {
		for ; len(vals) >= 4; vals, dst = vals[4:], dst[16:] {
			d := dst[:16:16]
			le.PutUint32(d[0:], math.Float32bits(float32(vals[0])))
			le.PutUint32(d[4:], math.Float32bits(float32(vals[1])))
			le.PutUint32(d[8:], math.Float32bits(float32(vals[2])))
			le.PutUint32(d[12:], math.Float32bits(float32(vals[3])))
		}
		for i, v := range vals {
			le.PutUint32(dst[4*i:], math.Float32bits(float32(v)))
		}
		return
	}
	for ; len(vals) >= 4; vals, dst = vals[4:], dst[32:] {
		d := dst[:32:32]
		le.PutUint64(d[0:], math.Float64bits(vals[0]))
		le.PutUint64(d[8:], math.Float64bits(vals[1]))
		le.PutUint64(d[16:], math.Float64bits(vals[2]))
		le.PutUint64(d[24:], math.Float64bits(vals[3]))
	}
	for i, v := range vals {
		le.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// GetFloats is PutFloats' inverse: it fills dst from len(dst)·width
// little-endian bytes of src, widening float32 when width is 4.
func GetFloats(dst []float64, src []byte, width int) {
	for i := range dst {
		if width == 4 {
			dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[i*4:])))
		} else {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
		}
	}
}
