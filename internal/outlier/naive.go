package outlier

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"sperr/internal/bits"
	"sperr/internal/elias"
)

// This file implements the two straw-man outlier storage schemes the paper
// discusses and dismisses in Section II — explicit coordinate storage (as
// in CSR/CSC sparse-matrix formats) and bitmap position coding with
// variable-length values — so the ablation experiments can quantify how
// much the SPECK-inspired coder actually saves.

// errNaive reports an undecodable naive-format stream.
var errNaive = errors.New("outlier: corrupt naive stream")

// EncodeCSR stores outliers the way CSR/CSC sparse formats store nonzeros:
// an explicit position (varint delta) and an explicit value per entry.
// Values are quantized to multiples of 2*tol like SPERR corrections, so
// the comparison with Encode is rate-for-equal-quality.
func EncodeCSR(n int, tol float64, outliers []Outlier) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(outliers)))
	prev := 0
	for _, o := range sortedByPos(outliers) {
		buf = binary.AppendUvarint(buf, uint64(o.Pos-prev))
		prev = o.Pos
		buf = binary.AppendVarint(buf, quantCorr(o.Corr, tol))
	}
	return buf
}

// DecodeCSR reverses EncodeCSR.
func DecodeCSR(data []byte, tol float64) ([]Outlier, error) {
	off := 0
	count, m := binary.Uvarint(data)
	if m <= 0 {
		return nil, errNaive
	}
	off += m
	out := make([]Outlier, 0, count)
	pos := 0
	for i := uint64(0); i < count; i++ {
		d, m := binary.Uvarint(data[off:])
		if m <= 0 {
			return nil, fmt.Errorf("%w: position %d", errNaive, i)
		}
		off += m
		pos += int(d)
		q, m := binary.Varint(data[off:])
		if m <= 0 {
			return nil, fmt.Errorf("%w: value %d", errNaive, i)
		}
		off += m
		out = append(out, Outlier{Pos: pos, Corr: float64(q) * 2 * tol})
	}
	return out, nil
}

// EncodeBitmap stores positions as a dense bitmap over the n points (the
// bitmap-coding alternative of Section II) followed by varint-coded
// quantized corrections in position order.
func EncodeBitmap(n int, tol float64, outliers []Outlier) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(len(outliers)))
	bitmap := make([]byte, (n+7)/8)
	sorted := sortedByPos(outliers)
	for _, o := range sorted {
		bitmap[o.Pos>>3] |= 1 << (o.Pos & 7)
	}
	buf = append(buf, bitmap...)
	for _, o := range sorted {
		buf = binary.AppendVarint(buf, quantCorr(o.Corr, tol))
	}
	return buf
}

// DecodeBitmap reverses EncodeBitmap.
func DecodeBitmap(data []byte, tol float64) ([]Outlier, error) {
	off := 0
	n, m := binary.Uvarint(data)
	if m <= 0 {
		return nil, errNaive
	}
	off += m
	count, m := binary.Uvarint(data[off:])
	if m <= 0 {
		return nil, errNaive
	}
	off += m
	nb := int((n + 7) / 8)
	if off+nb > len(data) {
		return nil, fmt.Errorf("%w: bitmap truncated", errNaive)
	}
	bitmap := data[off : off+nb]
	off += nb
	out := make([]Outlier, 0, count)
	for pos := 0; pos < int(n); pos++ {
		if bitmap[pos>>3]&(1<<(pos&7)) == 0 {
			continue
		}
		q, m := binary.Varint(data[off:])
		if m <= 0 {
			return nil, fmt.Errorf("%w: value at pos %d", errNaive, pos)
		}
		off += m
		out = append(out, Outlier{Pos: pos, Corr: float64(q) * 2 * tol})
	}
	if uint64(len(out)) != count {
		return nil, fmt.Errorf("%w: bitmap has %d set bits, header says %d",
			errNaive, len(out), count)
	}
	return out, nil
}

// EncodeGamma stores outliers with Elias universal codes (the paper's
// reference [31], the variable-length-coding alternative Section II
// mentions): position gaps and zigzagged quantized corrections are both
// gamma coded.
func EncodeGamma(n int, tol float64, outliers []Outlier) []byte {
	w := bits.NewWriter(len(outliers) * 16)
	elias.WriteGamma(w, uint64(len(outliers))+1)
	prev := -1
	for _, o := range sortedByPos(outliers) {
		elias.WriteGamma(w, uint64(o.Pos-prev))
		prev = o.Pos
		elias.WriteGamma(w, elias.ZigZag(quantCorr(o.Corr, tol)))
	}
	return w.Bytes()
}

// DecodeGamma reverses EncodeGamma.
func DecodeGamma(data []byte, tol float64) ([]Outlier, error) {
	r := bits.NewReader(data)
	cnt, err := elias.ReadGamma(r)
	if err != nil {
		return nil, err
	}
	count := int(cnt - 1)
	out := make([]Outlier, 0, count)
	pos := -1
	for i := 0; i < count; i++ {
		gap, err := elias.ReadGamma(r)
		if err != nil {
			return nil, err
		}
		pos += int(gap)
		zz, err := elias.ReadGamma(r)
		if err != nil {
			return nil, err
		}
		out = append(out, Outlier{Pos: pos, Corr: float64(elias.UnZigZag(zz)) * 2 * tol})
	}
	return out, nil
}

// quantCorr quantizes a correction to the nearest nonzero multiple of
// 2*tol (an outlier needs a nonzero correction to land inside the
// tolerance), matching the precision the SPECK-inspired coder delivers.
func quantCorr(corr, tol float64) int64 {
	q := int64(math.Round(corr / (2 * tol)))
	if q == 0 {
		if corr >= 0 {
			return 1
		}
		return -1
	}
	return q
}

func sortedByPos(outliers []Outlier) []Outlier {
	out := append([]Outlier(nil), outliers...)
	slices.SortFunc(out, byPos)
	return out
}
