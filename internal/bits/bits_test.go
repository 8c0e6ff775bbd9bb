package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	w := NewWriter(64)
	pattern := []bool{true, false, true, true, false, false, true, false, true}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	if w.Len() != uint64(len(pattern)) {
		t.Fatalf("Len = %d, want %d", w.Len(), len(pattern))
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		if got := r.ReadBit(); got != want {
			t.Fatalf("bit %d = %v, want %v", i, got, want)
		}
	}
}

func TestWriteBitsReadBits(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0xDEADBEEF, 32)
	w.WriteBits(0x3, 2)
	w.WriteBits(0x1FF, 9)
	r := NewReader(w.Bytes())
	if got := r.ReadBits(32); got != 0xDEADBEEF {
		t.Errorf("ReadBits(32) = %#x, want 0xDEADBEEF", got)
	}
	if got := r.ReadBits(2); got != 0x3 {
		t.Errorf("ReadBits(2) = %#x, want 0x3", got)
	}
	if got := r.ReadBits(9); got != 0x1FF {
		t.Errorf("ReadBits(9) = %#x, want 0x1FF", got)
	}
	if r.Exhausted() {
		t.Error("reader exhausted prematurely")
	}
}

func TestBudgetExhaustion(t *testing.T) {
	w := NewWriter(0)
	for i := 0; i < 20; i++ {
		w.WriteBit(true)
	}
	r := NewReaderBits(w.Bytes(), 5)
	for i := 0; i < 5; i++ {
		if !r.ReadBit() {
			t.Fatalf("bit %d should be true", i)
		}
	}
	if r.Exhausted() {
		t.Fatal("should not be exhausted at exactly the budget")
	}
	if r.ReadBit() {
		t.Fatal("read past budget should return false")
	}
	if !r.Exhausted() {
		t.Fatal("reader should be exhausted after reading past budget")
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestBudgetClamp(t *testing.T) {
	r := NewReaderBits([]byte{0xFF}, 1000)
	if r.budget != 8 {
		t.Fatalf("budget = %d, want clamped to 8", r.budget)
	}
	r.SetBudget(4)
	if r.Remaining() != 4 {
		t.Fatalf("Remaining = %d, want 4", r.Remaining())
	}
}

func TestReset(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0xAB, 8)
	w.WriteBit(true)
	w.Reset()
	if w.Len() != 0 || len(w.Bytes()) != 0 {
		t.Fatal("Reset did not clear writer")
	}
	w.WriteBit(true)
	r := NewReader(w.Bytes())
	if !r.ReadBit() {
		t.Fatal("bit after reset lost")
	}
}

func TestBytesIdempotent(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0x5, 3)
	b1 := w.Bytes()
	b2 := w.Bytes()
	if len(b1) != 1 || len(b2) != 1 || b1[0] != b2[0] {
		t.Fatalf("Bytes not idempotent: %v vs %v", b1, b2)
	}
	w.WriteBits(0x7F, 7) // crosses a byte boundary
	b3 := w.Bytes()
	if len(b3) != 2 {
		t.Fatalf("len = %d, want 2", len(b3))
	}
	r := NewReader(b3)
	if got := r.ReadBits(3); got != 0x5 {
		t.Fatalf("first 3 bits = %#x, want 0x5", got)
	}
	if got := r.ReadBits(7); got != 0x7F {
		t.Fatalf("next 7 bits = %#x, want 0x7F", got)
	}
}

// Property: any sequence of bits round-trips exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(data []byte, trim uint8) bool {
		nbits := uint64(len(data)) * 8
		if n := uint64(trim); n < nbits {
			nbits -= n
		}
		src := NewReader(data)
		w := NewWriter(int(nbits))
		for i := uint64(0); i < nbits; i++ {
			w.WriteBit(src.ReadBit())
		}
		r := NewReader(w.Bytes())
		chk := NewReader(data)
		for i := uint64(0); i < nbits; i++ {
			if r.ReadBit() != chk.ReadBit() {
				return false
			}
		}
		return w.Len() == nbits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: WriteBits/ReadBits agree for arbitrary widths.
func TestQuickWriteBitsWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		w := NewWriter(0)
		type field struct {
			v uint64
			n uint
		}
		var fields []field
		for i := 0; i < 1+rng.Intn(10); i++ {
			n := uint(1 + rng.Intn(64))
			v := rng.Uint64()
			if n < 64 {
				v &= (1 << n) - 1
			}
			fields = append(fields, field{v, n})
			w.WriteBits(v, n)
		}
		r := NewReader(w.Bytes())
		for i, f := range fields {
			if got := r.ReadBits(f.n); got != f.v {
				t.Fatalf("iter %d field %d: got %#x want %#x (n=%d)", iter, i, got, f.v, f.n)
			}
		}
	}
}

func BenchmarkWriteBit(b *testing.B) {
	w := NewWriter(b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.WriteBit(i&1 == 0)
	}
}

func BenchmarkReadBit(b *testing.B) {
	w := NewWriter(b.N)
	for i := 0; i < b.N; i++ {
		w.WriteBit(i&3 == 0)
	}
	data := w.Bytes()
	b.ResetTimer()
	r := NewReader(data)
	for i := 0; i < b.N; i++ {
		r.ReadBit()
	}
}

// The word-level WriteBits/ReadBits fast paths must be bit-identical to
// the per-bit reference at every alignment, width, and budget boundary.
func TestWordFastPathsMatchPerBit(t *testing.T) {
	rng := uint64(0x2545F4914F6CDD1D)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for trial := 0; trial < 200; trial++ {
		// Random mixed write schedule: single bits and words of every width.
		type op struct {
			v uint64
			n uint
		}
		var ops []op
		total := uint(0)
		for len(ops) < 40 {
			n := uint(next() % 65) // 0..64
			ops = append(ops, op{v: next(), n: n})
			total += n
		}
		ref := NewWriter(int(total))
		fast := NewWriter(int(total))
		for _, o := range ops {
			for i := uint(0); i < o.n; i++ { // per-bit reference
				ref.WriteBit(o.v&(1<<i) != 0)
			}
			fast.WriteBits(o.v, o.n)
		}
		if ref.Len() != fast.Len() {
			t.Fatalf("trial %d: len %d vs %d", trial, fast.Len(), ref.Len())
		}
		rb, fb := ref.Bytes(), fast.Bytes()
		if len(rb) != len(fb) {
			t.Fatalf("trial %d: bytes %d vs %d", trial, len(fb), len(rb))
		}
		for i := range rb {
			if rb[i] != fb[i] {
				t.Fatalf("trial %d: byte %d differs: %02x vs %02x", trial, i, fb[i], rb[i])
			}
		}

		// Read back with a budget that may cut a word mid-read.
		budget := next() % uint64(total+2)
		r1 := NewReaderBits(fb, budget)
		r2 := NewReaderBits(fb, budget)
		for _, o := range ops {
			var want uint64
			for i := uint(0); i < o.n; i++ {
				if r1.ReadBit() {
					want |= 1 << i
				}
				if r1.Exhausted() {
					break
				}
			}
			got := r2.ReadBits(o.n)
			if got != want {
				t.Fatalf("trial %d: ReadBits(%d)=%#x, per-bit %#x (budget %d, pos %d)",
					trial, o.n, got, want, budget, r2.Pos())
			}
			if r1.Exhausted() != r2.Exhausted() {
				t.Fatalf("trial %d: exhausted mismatch %v vs %v", trial, r2.Exhausted(), r1.Exhausted())
			}
			if r1.Exhausted() {
				break
			}
			if r1.Pos() != r2.Pos() {
				t.Fatalf("trial %d: pos %d vs %d", trial, r2.Pos(), r1.Pos())
			}
		}
	}
}

// ReadWindow must hand out exactly the bits ReadBit would, at every byte
// alignment, across the end of the buffer (where the 8-byte load gives way
// to a byte loop), and never one bit beyond the budget: the first empty
// window marks the reader exhausted just as the failing ReadBit does.
func TestReadWindowMatchesReadBit(t *testing.T) {
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, next()%40)
		for i := range data {
			data[i] = byte(next())
		}
		budget := next() % uint64(len(data)*8+9) // sometimes past the data: clamps
		ref, win := NewReaderBits(data, budget), NewReaderBits(data, budget)
		for !ref.Exhausted() {
			w, n := win.ReadWindow()
			if want := min(ref.Remaining(), WindowBits); uint64(n) != want {
				t.Fatalf("trial %d: window of %d bits with %d left", trial, n, ref.Remaining())
			}
			// Use only some of the window, as a decoder ending a pass does.
			use := n
			if n > 0 && next()%3 == 0 {
				use = uint(next() % uint64(n+1))
				win.Unread(n - use)
			}
			for i := uint(0); i < use; i++ {
				if got, want := w>>i&1 != 0, ref.ReadBit(); got != want {
					t.Fatalf("trial %d: bit %d of the stream is %v, ReadBit says %v", trial, ref.Pos()-1, got, want)
				}
			}
			if n == 0 {
				ref.ReadBit() // the read that fails
			}
			if win.Pos() != ref.Pos() || win.Exhausted() != ref.Exhausted() {
				t.Fatalf("trial %d: window reader at %d (exhausted %v), per-bit at %d (%v)",
					trial, win.Pos(), win.Exhausted(), ref.Pos(), ref.Exhausted())
			}
		}
	}
}
