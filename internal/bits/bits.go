// Package bits provides bit-granular stream I/O for embedded coders.
//
// SPECK and the SPERR outlier coder emit decisions one bit at a time and
// must be able to stop mid-pass when a size budget is exhausted (the
// "embedded" property: any prefix of the stream is decodable). Writer and
// Reader therefore expose exact bit positions and budget-aware operations.
package bits

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrBudget is returned (or signalled via Exhausted) when a budget-limited
// stream runs out of bits.
var ErrBudget = errors.New("bits: budget exhausted")

// Writer accumulates individual bits into a byte slice, LSB-first within
// each byte. Bits collect in a 64-bit accumulator and spill to the buffer
// a whole word at a time, so the per-bit hot path is two shifts and a
// branch taken once per 64 bits; buf is therefore always a whole number
// of little-endian words. The zero value is ready to use.
type Writer struct {
	buf  []byte
	n    uint64 // number of bits written
	cur  uint64 // partial word being filled
	fill uint   // bits used in cur (0..63)
}

// NewWriter returns a Writer with capacity preallocated for sizeHint bits.
func NewWriter(sizeHint int) *Writer {
	w := &Writer{}
	if sizeHint > 0 {
		w.buf = make([]byte, 0, (sizeHint+7)/8)
	}
	return w
}

// WriteBit appends one bit.
func (w *Writer) WriteBit(b bool) {
	if b {
		w.cur |= 1 << w.fill
	}
	w.fill++
	w.n++
	if w.fill == 64 {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, w.cur)
		w.cur = 0
		w.fill = 0
	}
}

// WriteBits appends the low n bits of v (n <= 64), least significant
// first. Whole words are emitted with a single append, so runs of
// refinement bits cost far less than n WriteBit calls.
func (w *Writer) WriteBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n < 64 {
		v &= (uint64(1) << n) - 1
	}
	w.n += uint64(n)
	w.cur |= v << w.fill
	if w.fill+n >= 64 {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, w.cur)
		// Shifts of 64 yield 0 in Go, so fill==0 with n==64 lands cur=0.
		w.cur = v >> (64 - w.fill)
		w.fill = w.fill + n - 64
	} else {
		w.fill += n
	}
}

// WriteZeros appends n zero bits. Long runs of insignificance decisions
// cost a memclr instead of n WriteBit calls.
func (w *Writer) WriteZeros(n int) {
	if n <= 0 {
		return
	}
	w.n += uint64(n)
	total := w.fill + uint(n)
	if total < 64 {
		w.fill = total
		return
	}
	// Zeros complete the partial word; the rest are whole zero words.
	w.buf = binary.LittleEndian.AppendUint64(w.buf, w.cur)
	w.cur = 0
	total -= 64
	if nb := int(total>>6) * 8; nb > 0 {
		l := len(w.buf)
		if cap(w.buf)-l >= nb {
			w.buf = w.buf[:l+nb]
		} else {
			w.buf = append(w.buf, make([]byte, nb)...)
		}
		z := w.buf[l:]
		for i := range z {
			z[i] = 0
		}
	}
	w.fill = total & 63
}

// Len returns the number of bits written so far.
func (w *Writer) Len() uint64 { return w.n }

// Bytes returns the stream padded with zero bits to a whole byte.
// The Writer remains usable; Bytes may be called repeatedly.
func (w *Writer) Bytes() []byte {
	nb := int((w.n + 7) / 8)
	out := make([]byte, len(w.buf), nb)
	copy(out, w.buf)
	for cur := w.cur; len(out) < nb; cur >>= 8 {
		out = append(out, byte(cur))
	}
	return out
}

// Reset truncates the writer to empty, retaining capacity.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.n = 0
	w.cur = 0
	w.fill = 0
}

// Close pads the stream with zero bits to a whole byte and returns the
// writer's internal buffer without copying — the allocation-free
// counterpart of Bytes for single-consumer flows. The returned slice
// aliases the writer: it is valid only until the next Reset, and the
// writer must be Reset before any further writes.
func (w *Writer) Close() []byte {
	nb := int((w.n + 7) / 8)
	for cur := w.cur; len(w.buf) < nb; cur >>= 8 {
		w.buf = append(w.buf, byte(cur))
	}
	w.cur = 0
	w.fill = 0
	return w.buf
}

// Reset reinitializes the reader over data with the budget clamped to
// nbits, retaining no references to prior input.
func (r *Reader) Reset(data []byte, nbits uint64) {
	max := uint64(len(data)) * 8
	if nbits > max {
		nbits = max
	}
	*r = Reader{buf: data, budget: nbits}
}

// Reader consumes bits from a byte slice, LSB-first within each byte.
// A bit budget smaller than the underlying data may be imposed so that
// truncated (embedded) streams decode cleanly: once the budget is hit,
// ReadBit reports false and Exhausted() turns true, letting decoder loops
// unwind without error plumbing at every call site.
type Reader struct {
	buf    []byte
	pos    uint64 // next bit index
	budget uint64 // total bits readable
	over   bool   // attempted to read past budget
}

// NewReader returns a Reader over data with the budget set to all bits
// present in data.
func NewReader(data []byte) *Reader {
	return &Reader{buf: data, budget: uint64(len(data)) * 8}
}

// NewReaderBits returns a Reader over data limited to nbits bits.
// If nbits exceeds the data length the budget is clamped.
func NewReaderBits(data []byte, nbits uint64) *Reader {
	r := NewReader(data)
	if nbits < r.budget {
		r.budget = nbits
	}
	return r
}

// SetBudget lowers (or raises, up to the data size) the readable bit count.
func (r *Reader) SetBudget(nbits uint64) {
	max := uint64(len(r.buf)) * 8
	if nbits > max {
		nbits = max
	}
	r.budget = nbits
}

// ReadBit returns the next bit. Past the budget it returns false and marks
// the reader exhausted.
func (r *Reader) ReadBit() bool {
	if r.pos >= r.budget {
		r.over = true
		return false
	}
	b := r.buf[r.pos>>3]&(1<<(r.pos&7)) != 0
	r.pos++
	return b
}

// ReadBits reads n bits (n <= 64) LSB-first and returns them as a uint64.
// If the budget runs out mid-read the reader is exhausted and the
// already-read low bits are returned. Reads that fit the budget extract
// whole bytes at a time.
func (r *Reader) ReadBits(n uint) uint64 {
	if n == 0 {
		return 0
	}
	if r.pos+uint64(n) > r.budget {
		// Budget boundary inside the read: fall back to per-bit reads so
		// exhaustion semantics stay exact.
		var v uint64
		for i := uint(0); i < n; i++ {
			if r.ReadBit() {
				v |= 1 << i
			}
			if r.over {
				break
			}
		}
		return v
	}
	pos := r.pos
	r.pos += uint64(n)
	var v uint64
	got := uint(0)
	for got < n {
		b := uint64(r.buf[pos>>3] >> (pos & 7))
		take := 8 - uint(pos&7)
		if take > n-got {
			take = n - got
			b &= (uint64(1) << take) - 1
		}
		v |= b << got
		got += take
		pos += uint64(take)
	}
	return v
}

// WindowBits is the most bits one ReadWindow call delivers: what is left of
// an unaligned 64-bit load after dropping the up to seven bits in front of
// the read position.
const WindowBits = 57

// ReadWindow consumes the next n = min(WindowBits, Remaining()) bits and
// returns them LSB-first in the low bits of win; bits of win above n are
// unspecified. A decoder shifts decisions out of the window in registers
// and comes back once per n bits, so the refill's budget clamp is the only
// budget check its hot loop makes — and because the window never reaches
// past the budget, running it dry is exactly ReadBit's exhaustion: with
// nothing left, n is 0 and the reader is marked exhausted. Bits taken but
// not used go back with Unread.
func (r *Reader) ReadWindow() (win uint64, n uint) {
	left := r.Remaining()
	if left == 0 {
		r.over = true
		return 0, 0
	}
	if left > WindowBits {
		left = WindowBits
	}
	if i := r.pos >> 3; i+8 <= uint64(len(r.buf)) {
		win = binary.LittleEndian.Uint64(r.buf[i:])
	} else {
		for j, sh := i, uint(0); j < uint64(len(r.buf)); j, sh = j+1, sh+8 {
			win |= uint64(r.buf[j]) << sh
		}
	}
	win >>= r.pos & 7
	r.pos += left
	return win, uint(left)
}

// Unread returns the last n bits of the most recent ReadWindow to the
// stream.
func (r *Reader) Unread(n uint) { r.pos -= uint64(n) }

// Exhausted reports whether a read past the budget was attempted.
func (r *Reader) Exhausted() bool { return r.over }

// Pos returns the number of bits consumed.
func (r *Reader) Pos() uint64 { return r.pos }

// Remaining returns the number of bits still readable.
func (r *Reader) Remaining() uint64 {
	if r.pos >= r.budget {
		return 0
	}
	return r.budget - r.pos
}

// String implements fmt.Stringer for debugging.
func (r *Reader) String() string {
	return fmt.Sprintf("bits.Reader{pos=%d budget=%d over=%v}", r.pos, r.budget, r.over)
}
