package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sperr/internal/grid"
	"sperr/internal/rawio"
)

// TestRegionAssemblerOrdersBands feeds chunk∩region pieces to the
// assembler in a deliberately hostile order (reverse) over an
// odd-dimension region straddling chunk boundaries, and asserts the
// output is exactly the row-major region bytes.
func TestRegionAssemblerOrdersBands(t *testing.T) {
	volDims := [3]int{21, 13, 7}
	chunkDims := [3]int{8, 8, 4}
	origin := [3]int{3, 5, 1}
	dims := [3]int{15, 7, 6}

	// Synthetic volume: value = linear index, so any misplacement shows.
	value := func(x, y, z int) float64 {
		return float64((z*volDims[1]+y)*volDims[0] + x)
	}

	// Enumerate chunk boxes exactly as the engine tiles (z-major grid).
	var pieces []struct {
		o, d [3]int
		data []float64
	}
	for cz := 0; cz < volDims[2]; cz += chunkDims[2] {
		for cy := 0; cy < volDims[1]; cy += chunkDims[1] {
			for cx := 0; cx < volDims[0]; cx += chunkDims[0] {
				cd := [3]int{
					min(chunkDims[0], volDims[0]-cx),
					min(chunkDims[1], volDims[1]-cy),
					min(chunkDims[2], volDims[2]-cz),
				}
				o, d, ok := grid.Intersect(origin, dims, [3]int{cx, cy, cz}, cd)
				if !ok {
					continue
				}
				data := make([]float64, d[0]*d[1]*d[2])
				for z := 0; z < d[2]; z++ {
					for y := 0; y < d[1]; y++ {
						for x := 0; x < d[0]; x++ {
							data[(z*d[1]+y)*d[0]+x] = value(o[0]+x, o[1]+y, o[2]+z)
						}
					}
				}
				pieces = append(pieces, struct {
					o, d [3]int
					data []float64
				}{o, d, data})
			}
		}
	}
	if len(pieces) < 4 {
		t.Fatalf("region only touches %d chunks; want a real straddle", len(pieces))
	}

	var out bytes.Buffer
	ra := newRegionAssembler(&out, origin, dims, volDims, chunkDims, 8)
	for i := len(pieces) - 1; i >= 0; i-- { // reverse order: nothing flushable until the end
		if err := ra.add(pieces[i].o, pieces[i].d, pieces[i].data); err != nil {
			t.Fatal(err)
		}
	}
	if err := ra.done(); err != nil {
		t.Fatal(err)
	}

	want := dims[0] * dims[1] * dims[2] * 8
	if out.Len() != want {
		t.Fatalf("assembled %d bytes, want %d", out.Len(), want)
	}
	raw := out.Bytes()
	for z := 0; z < dims[2]; z++ {
		for y := 0; y < dims[1]; y++ {
			for x := 0; x < dims[0]; x++ {
				i := (z*dims[1]+y)*dims[0] + x
				got := math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
				if want := value(origin[0]+x, origin[1]+y, origin[2]+z); got != want {
					t.Fatalf("sample (%d,%d,%d): got %v, want %v", x, y, z, got, want)
				}
			}
		}
	}
}

// TestRegionAssemblerDoneCatchesShortfall pins that a missing piece is
// an error, not silent truncation.
func TestRegionAssemblerDoneCatchesShortfall(t *testing.T) {
	var out bytes.Buffer
	ra := newRegionAssembler(&out, [3]int{0, 0, 0}, [3]int{16, 8, 8}, [3]int{16, 8, 8}, [3]int{8, 8, 8}, 8)
	data := make([]float64, 8*8*8)
	if err := ra.add([3]int{0, 0, 0}, [3]int{8, 8, 8}, data); err != nil {
		t.Fatal(err)
	}
	if err := ra.done(); err == nil {
		t.Fatal("done() accepted a half-assembled region")
	}
}

// gridPiece is one chunk∩region piece (box o+d) together with the whole
// chunk it comes from (box so+sd and its slab).
type gridPiece struct {
	o, d, so, sd [3]int
	slab         []float64
}

// gridPieces cuts the region origin+dims of a volume tiled by chunkDims
// into its pieces; slab values follow the linear volume index.
func gridPieces(volDims, chunkDims, origin, dims [3]int) []gridPiece {
	var out []gridPiece
	for cz := 0; cz < volDims[2]; cz += chunkDims[2] {
		for cy := 0; cy < volDims[1]; cy += chunkDims[1] {
			for cx := 0; cx < volDims[0]; cx += chunkDims[0] {
				so := [3]int{cx, cy, cz}
				sd := [3]int{min(chunkDims[0], volDims[0]-cx), min(chunkDims[1], volDims[1]-cy), min(chunkDims[2], volDims[2]-cz)}
				o, d, ok := grid.Intersect(origin, dims, so, sd)
				if !ok {
					continue
				}
				slab := make([]float64, sd[0]*sd[1]*sd[2])
				for i := range slab {
					x, y, z := cx+i%sd[0], cy+(i/sd[0])%sd[1], cz+i/(sd[0]*sd[1])
					// Not exactly representable in float32, so narrowing shows.
					slab[i] = float64((z*volDims[1]+y)*volDims[0]+x) + 1.0/3
				}
				out = append(out, gridPiece{o, d, so, sd, slab})
			}
		}
	}
	return out
}

// cut copies the piece's box out of its chunk slab: what Store.Region
// used to hand the assembler, and what a peer puts on the wire.
func (p gridPiece) cut() []float64 {
	out := make([]float64, 0, p.d[0]*p.d[1]*p.d[2])
	for z := p.o[2] - p.so[2]; z < p.o[2]-p.so[2]+p.d[2]; z++ {
		for y := p.o[1] - p.so[1]; y < p.o[1]-p.so[1]+p.d[1]; y++ {
			off := (z*p.sd[1]+y)*p.sd[0] + p.o[0] - p.so[0]
			out = append(out, p.slab[off:off+p.d[0]]...)
		}
	}
	return out
}

// TestAssemblerSlabAndWireEqualAdd: whichever way a piece arrives — as a
// materialised cut (add), in place inside its chunk's slab (addSlab), or
// as wire bytes (addWire) — and in whatever order pieces arrive, the
// response bytes are the ones add alone produces. The region touches a
// 3x3x2 grid of chunks of an odd-sized volume, at both output widths; 18
// pieces have too many orders to enumerate, so the orders are forward,
// reverse and 150 seeded shuffles, and every one of the 24 orders of a
// four-piece region is run besides.
func TestAssemblerSlabAndWireEqualAdd(t *testing.T) {
	volDims, chunkDims := [3]int{21, 19, 9}, [3]int{8, 8, 4}
	for _, rg := range []struct {
		origin, dims [3]int
		pieces       int
	}{
		{[3]int{3, 2, 1}, [3]int{17, 16, 6}, 18},
		{[3]int{6, 9, 3}, [3]int{5, 3, 2}, 4},
	} {
		pieces := gridPieces(volDims, chunkDims, rg.origin, rg.dims)
		if len(pieces) != rg.pieces {
			t.Fatalf("region %v+%v touches %d chunks, want %d", rg.origin, rg.dims, len(pieces), rg.pieces)
		}
		var orders [][]int
		if len(pieces) == 4 {
			orders = permutations(4)
		} else {
			rng := rand.New(rand.NewSource(23))
			fwd := make([]int, len(pieces))
			for i := range fwd {
				fwd[i] = i
			}
			rev := slices.Clone(fwd)
			slices.Reverse(rev)
			orders = append(orders, fwd, rev)
			for i := 0; i < 150; i++ {
				orders = append(orders, rng.Perm(len(pieces)))
			}
		}
		for _, width := range []int{8, 4} {
			var ref bytes.Buffer
			ra := newRegionAssembler(&ref, rg.origin, rg.dims, volDims, chunkDims, width)
			for _, p := range pieces {
				if err := ra.add(p.o, p.d, p.cut()); err != nil {
					t.Fatal(err)
				}
			}
			if err := ra.done(); err != nil {
				t.Fatal(err)
			}
			if ref.Len() != rg.dims[0]*rg.dims[1]*rg.dims[2]*width {
				t.Fatalf("reference is %d bytes", ref.Len())
			}
			for oi, order := range orders {
				var got bytes.Buffer
				ra := newRegionAssembler(&got, rg.origin, rg.dims, volDims, chunkDims, width)
				for k, pi := range order {
					p := pieces[pi]
					var err error
					switch (oi + k) % 3 {
					case 0:
						err = ra.addSlab(p.o, p.d, p.so, p.sd, p.slab)
					case 1:
						raw, _ := rawio.EncodeFloats(p.cut(), 8)
						err = ra.addWire(p.o, p.d, bytes.NewReader(raw))
					default:
						err = ra.add(p.o, p.d, p.cut())
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := ra.done(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), ref.Bytes()) {
					t.Fatalf("width %d, order %v: bytes differ from add alone", width, order)
				}
			}
		}
	}
}

// permutations returns every order of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int(nil), p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestAssemblerShortWireNeverFlushes: a wire piece that ends early — after
// whole rows, or inside one — is an error that leaves its band counted as
// incomplete, however many rows it wrote; nothing of the band reaches the
// output until the piece is delivered again in full, which overwrites
// every row the dead attempt left.
func TestAssemblerShortWireNeverFlushes(t *testing.T) {
	volDims, chunkDims := [3]int{10, 6, 4}, [3]int{5, 6, 4}
	pieces := gridPieces(volDims, chunkDims, [3]int{}, volDims)
	if len(pieces) != 2 {
		t.Fatalf("%d pieces, want 2", len(pieces))
	}
	for _, width := range []int{8, 4} {
		var want bytes.Buffer
		ra := newRegionAssembler(&want, [3]int{}, volDims, volDims, chunkDims, width)
		for _, p := range pieces {
			if err := ra.add(p.o, p.d, p.cut()); err != nil {
				t.Fatal(err)
			}
		}
		p := pieces[1]
		raw, _ := rawio.EncodeFloats(p.cut(), 8)
		for _, short := range []int{1, 8*p.d[0] + 3, len(raw) - 8*p.d[0], len(raw)} {
			var got bytes.Buffer
			ra := newRegionAssembler(&got, [3]int{}, volDims, volDims, chunkDims, width)
			if err := ra.add(pieces[0].o, pieces[0].d, pieces[0].cut()); err != nil {
				t.Fatal(err)
			}
			// The dead attempt carries other bytes than the real piece, so
			// a row it wrote and nobody rewrote would show.
			garbage := bytes.Repeat([]byte{0x55}, len(raw)-short)
			if err := ra.addWire(p.o, p.d, bytes.NewReader(garbage)); err == nil {
				t.Fatalf("width %d: a piece %d bytes short was accepted", width, short)
			}
			if got.Len() != 0 || ra.done() == nil {
				t.Fatalf("width %d, %d bytes short: %d bytes flushed, done() = %v", width, short, got.Len(), ra.done())
			}
			if err := ra.addWire(p.o, p.d, bytes.NewReader(raw)); err != nil {
				t.Fatal(err)
			}
			if err := ra.done(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("width %d, %d bytes short: rows of the dead attempt survived", width, short)
			}
		}
	}
}

// TestChunkFrameGolden pins the peer wire format byte for byte (the
// coordinator's parser is pinned to the same frame in internal/cluster):
// rows serialised out of the slab are what a cut-then-convert peer sent.
func TestChunkFrameGolden(t *testing.T) {
	const golden = "0700000008000000" +
		"0000000000000040" + "0000000000000840" + // 2 3
		"0000000000001440" + "0000000000001840" + // 5 6
		"0000000000002040" + "0000000000002240" + // 8 9
		"0000000000002640" + "0000000000002840" // 11 12
	slab := make([]float64, 12)
	for i := range slab {
		slab[i] = float64(i + 1)
	}
	var buf bytes.Buffer
	out := bufio.NewWriter(&buf)
	if err := writeChunkFrame(out, 7, [3]int{1, 0, 0}, [3]int{2, 2, 2}, [3]int{}, [3]int{3, 2, 2}, slab, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != golden {
		t.Fatalf("frame bytes\n got %s\nwant %s", got, golden)
	}
}
