package bits

import "testing"

// BenchmarkBitsReadWrite measures the raw bit layer: single-bit writes,
// word writes (the refinement-pass fast path), and the matching reads,
// bit by bit and shifted out of a ReadWindow.
func BenchmarkBitsReadWrite(b *testing.B) {
	const nbits = 1 << 20

	b.Run("WriteBit", func(b *testing.B) {
		w := NewWriter(nbits)
		b.SetBytes(nbits / 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Reset()
			for j := 0; j < nbits; j++ {
				w.WriteBit(j&3 == 0)
			}
		}
	})

	b.Run("WriteBits64", func(b *testing.B) {
		w := NewWriter(nbits)
		b.SetBytes(nbits / 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Reset()
			for j := 0; j < nbits/64; j++ {
				w.WriteBits(0x9249249249249249, 64)
			}
		}
	})

	w := NewWriter(nbits)
	for j := 0; j < nbits; j++ {
		w.WriteBit(j&3 == 0)
	}
	stream := w.Bytes()

	b.Run("ReadBit", func(b *testing.B) {
		var r Reader
		b.SetBytes(nbits / 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Reset(stream, nbits)
			ones := 0
			for j := 0; j < nbits; j++ {
				if r.ReadBit() {
					ones++
				}
			}
			if ones == 0 {
				b.Fatal("no bits set")
			}
		}
	})

	b.Run("ReadWindow", func(b *testing.B) {
		var r Reader
		b.SetBytes(nbits / 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Reset(stream, nbits)
			ones := 0
			for win, n := r.ReadWindow(); n > 0; win, n = r.ReadWindow() {
				for ; n > 0; n-- {
					ones += int(win & 1)
					win >>= 1
				}
			}
			if ones == 0 {
				b.Fatal("no bits set")
			}
		}
	})

	b.Run("ReadBits64", func(b *testing.B) {
		var r Reader
		b.SetBytes(nbits / 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Reset(stream, nbits)
			var acc uint64
			for j := 0; j < nbits/64; j++ {
				acc ^= r.ReadBits(64)
			}
			if r.Exhausted() {
				b.Fatal("exhausted")
			}
			_ = acc
		}
	})
}
