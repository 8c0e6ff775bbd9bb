package speck

import (
	"math"
	mbits "math/bits"
	"math/rand"
	"testing"

	"sperr/internal/grid"
)

// octreeTestTops fills a tops table for coeffs exactly the way encodeInt
// does: quantized leaf bytes scattered through leafOf, then the bottom-up
// internal fill.
func octreeTestTops(tr *octree, coeffs []float64, q float64) []uint8 {
	tops := make([]uint8, tr.nodes())
	r := quantizeRecip(q)
	for i, c := range coeffs {
		u := quantizeOne(math.Abs(c), q, r)
		tops[tr.leafOf[i]] = leafTop(c, u)
	}
	tr.fillTops(tops)
	return tops
}

// TestOctreeTopsMatchBruteForce re-enumerates the set-partitioning
// topology with the same BFS split rule and recomputes every node's box
// maximum by scanning its coefficients, asserting the precomputed table
// matches: node order, child placement, leaf positions, per-node top
// bytes, and leaf sign bits. Inputs cover random data plus the
// adversarial shapes the table's edge cases live on: all-zero volumes,
// a single spike, and odd/degenerate extents.
func TestOctreeTopsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		name string
		dims grid.Dims
		fill func(n int) []float64
	}{
		{"random-16cube", grid.D3(16, 16, 16), func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.NormFloat64() * math.Exp2(float64(rng.Intn(20)-10))
			}
			return v
		}},
		{"all-zero", grid.D3(8, 8, 8), func(n int) []float64 {
			return make([]float64, n)
		}},
		{"single-spike", grid.D3(8, 8, 8), func(n int) []float64 {
			v := make([]float64, n)
			v[n/2] = -123.456
			return v
		}},
		{"odd-dims", grid.D3(7, 5, 3), func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			return v
		}},
		{"prime-slab-2d", grid.D2(13, 11), func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			return v
		}},
		{"single-point", grid.D3(1, 1, 1), func(n int) []float64 {
			return []float64{3.25}
		}},
		{"pencil", grid.D3(17, 1, 9), func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			return v
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dims := tc.dims
			coeffs := tc.fill(dims.Len())
			const q = 0.0625
			tr := buildOctree(dims)
			// Quantize once; the brute-force expectations below are built
			// from the same magnitudes.
			r := quantizeRecip(q)
			umag := make([]uint64, dims.Len())
			for i, c := range coeffs {
				umag[i] = quantizeOne(math.Abs(c), q, r)
			}
			tops := octreeTestTops(tr, coeffs, q)
			// Replay the BFS: box j here must be node j there.
			boxes := make([]set, 1, tr.nodes())
			boxes[0] = set{nx: int32(dims.NX), ny: int32(dims.NY), nz: int32(dims.NZ)}
			seenLeaf := make([]bool, dims.Len())
			for head := 0; head < len(boxes); head++ {
				b := boxes[head]
				nd := tr.nod[head]
				// Brute-force the box's top: max Len64(u) over its coefficients.
				var want uint8
				for z := b.z; z < b.z+b.nz; z++ {
					for y := b.y; y < b.y+b.ny; y++ {
						for x := b.x; x < b.x+b.nx; x++ {
							u := umag[dims.Index(int(x), int(y), int(z))]
							if v := uint8(mbits.Len64(u)); v > want {
								want = v
							}
						}
					}
				}
				if got := tops[head] & 0x7f; got != want {
					t.Fatalf("node %d (box %+v): top %d, brute-force %d", head, b, got, want)
				}
				if b.single() {
					pos := dims.Index(int(b.x), int(b.y), int(b.z))
					if !nd.leaf() {
						t.Fatalf("node %d: 1x1x1 box is not a leaf", head)
					}
					if int(nd.pos()) != pos {
						t.Fatalf("node %d: leaf pos %d, want %d", head, nd.pos(), pos)
					}
					if tr.leafOf[pos] != int32(head) {
						t.Fatalf("pos %d: leafOf %d, want %d", pos, tr.leafOf[pos], head)
					}
					if seenLeaf[pos] {
						t.Fatalf("pos %d: covered by two leaves", pos)
					}
					seenLeaf[pos] = true
					wantSign := math.Signbit(coeffs[pos])
					if got := tops[head]&0x80 != 0; got != wantSign {
						t.Fatalf("leaf %d: sign bit %v, want %v", head, got, wantSign)
					}
					continue
				}
				if nd.leaf() {
					t.Fatalf("node %d: %+v box marked leaf", head, b)
				}
				var ch [8]set
				k := splitSet(&b, &ch)
				first, gotK := nd.kids()
				if int(first) != len(boxes) || gotK != k {
					t.Fatalf("node %d: children (%d,%d), want (%d,%d)", head, first, gotK, len(boxes), k)
				}
				boxes = append(boxes, ch[:k]...)
			}
			if len(boxes) != tr.nodes() {
				t.Fatalf("enumerated %d boxes, tree has %d nodes", len(boxes), tr.nodes())
			}
			for pos, ok := range seenLeaf {
				if !ok {
					t.Fatalf("pos %d: no leaf covers it", pos)
				}
			}
			// Level boundaries: every child of a level-d node sits in level d+1.
			levelOf := make([]int, tr.nodes())
			for d := 0; d+1 < len(tr.levels); d++ {
				for i := tr.levels[d]; i < tr.levels[d+1]; i++ {
					levelOf[i] = d
				}
			}
			for i, nd := range tr.nod {
				if nd.leaf() {
					continue
				}
				first, k := nd.kids()
				for j := 0; j < k; j++ {
					if levelOf[int(first)+j] != levelOf[i]+1 {
						t.Fatalf("node %d (level %d): child %d on level %d",
							i, levelOf[i], int(first)+j, levelOf[int(first)+j])
					}
				}
			}
		})
	}
}

// TestChildMaskExhaustive checks the SWAR brood-significance compare
// against the scalar definition for every one of the 256 possible
// equal/not-equal patterns, at several p1 values and child counts,
// including the truncated fallback near the end of the table.
func TestChildMaskExhaustive(t *testing.T) {
	for _, p1 := range []uint8{1, 7, 52, 53} {
		for pattern := 0; pattern < 256; pattern++ {
			var tops [16]uint8
			for j := 0; j < 8; j++ {
				if pattern&(1<<j) != 0 {
					tops[j] = p1
				} else {
					// A non-matching byte, possibly with the sign bit set.
					tops[j] = (p1 + 1 + uint8(j)) % 54
					if tops[j] == p1 {
						tops[j]++
					}
					if j%2 == 0 {
						tops[j] |= 0x80
					}
				}
			}
			// Sign bits on matching bytes must not break the compare.
			if pattern&1 != 0 {
				tops[0] |= 0x80
			}
			for k := 1; k <= 8; k++ {
				got := childMask(tops[:8], 0, k, p1)
				var want uint32
				for j := 0; j < k; j++ {
					if tops[j]&0x7f == p1 {
						want |= 1 << j
					}
				}
				if got != want {
					t.Fatalf("p1=%d pattern=%08b k=%d: mask %08b, want %08b", p1, pattern, k, got, want)
				}
				// Short-table fallback path.
				short := tops[:k]
				if got := childMask(short, 0, k, p1); got != want {
					t.Fatalf("p1=%d pattern=%08b k=%d (short): mask %08b, want %08b", p1, pattern, k, got, want)
				}
			}
		}
	}
}
