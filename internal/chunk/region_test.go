package chunk

import (
	"math"
	"testing"

	"sperr/internal/codec"
	"sperr/internal/grid"
)

func TestDecompressRegion(t *testing.T) {
	v := testVolume(grid.D3(40, 40, 40), 31)
	tol := 0.01
	stream, _, err := Compress(v, Options{
		Params:    codec.Params{Mode: codec.ModePWE, Tol: tol},
		ChunkDims: grid.D3(16, 16, 16),
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		x0, y0, z0 int
		d          grid.Dims
	}{
		{0, 0, 0, grid.D3(40, 40, 40)},  // whole volume
		{0, 0, 0, grid.D3(16, 16, 16)},  // exactly one chunk
		{10, 10, 10, grid.D3(10, 8, 6)}, // straddles chunk borders
		{39, 39, 39, grid.D3(1, 1, 1)},  // single corner point
		{32, 0, 16, grid.D3(8, 40, 16)}, // remainder chunks
	}
	for _, c := range cases {
		region, err := DecompressRegion(stream, c.x0, c.y0, c.z0, c.d, 0)
		if err != nil {
			t.Fatalf("region %v@(%d,%d,%d): %v", c.d, c.x0, c.y0, c.z0, err)
		}
		for z := 0; z < c.d.NZ; z++ {
			for y := 0; y < c.d.NY; y++ {
				for x := 0; x < c.d.NX; x++ {
					want := v.At(c.x0+x, c.y0+y, c.z0+z)
					got := region.At(x, y, z)
					if math.Abs(got-want) > tol*(1+1e-9) {
						t.Fatalf("region %v: error at (%d,%d,%d): %g vs %g",
							c.d, x, y, z, got, want)
					}
				}
			}
		}
	}
}

// A region decode must match a full decode exactly (same chunk decoder).
func TestRegionMatchesFullDecode(t *testing.T) {
	v := testVolume(grid.D3(32, 32, 32), 8)
	stream, _, err := Compress(v, Options{
		Params:    codec.Params{Mode: codec.ModePWE, Tol: 0.05},
		ChunkDims: grid.D3(16, 16, 16),
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decompress(stream, 0)
	if err != nil {
		t.Fatal(err)
	}
	region, err := DecompressRegion(stream, 5, 7, 9, grid.D3(20, 18, 12), 0)
	if err != nil {
		t.Fatal(err)
	}
	for z := 0; z < 12; z++ {
		for y := 0; y < 18; y++ {
			for x := 0; x < 20; x++ {
				if region.At(x, y, z) != full.At(5+x, 7+y, 9+z) {
					t.Fatalf("region differs from full decode at (%d,%d,%d)", x, y, z)
				}
			}
		}
	}
}

func TestTouchedChunks(t *testing.T) {
	v := testVolume(grid.D3(32, 32, 32), 4)
	stream, _, err := Compress(v, Options{
		Params:    codec.Params{Mode: codec.ModePWE, Tol: 0.1},
		ChunkDims: grid.D3(16, 16, 16),
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := parseContainer(stream)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := OpenRegion(stream, [3]int{}, [3]int{8, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if total, touched := len(c.chunks), len(rg.hit); total != 8 || touched != 1 {
		t.Fatalf("corner cutout touched %d/%d chunks, want 1/8", touched, total)
	}
	rg, err = OpenRegion(stream, [3]int{8, 8, 8}, [3]int{16, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	if touched := len(rg.hit); touched != 8 {
		t.Fatalf("center cutout touched %d chunks, want 8", touched)
	}
}

func TestRegionValidation(t *testing.T) {
	v := testVolume(grid.D3(16, 16, 16), 2)
	stream, _, err := Compress(v, Options{Params: codec.Params{Mode: codec.ModePWE, Tol: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecompressRegion(stream, 10, 0, 0, grid.D3(16, 4, 4), 0); err == nil {
		t.Error("out-of-bounds region should fail")
	}
	if _, err := DecompressRegion(stream, -1, 0, 0, grid.D3(4, 4, 4), 0); err == nil {
		t.Error("negative origin should fail")
	}
	if _, err := DecompressRegion(stream, 0, 0, 0, grid.Dims{}, 0); err == nil {
		t.Error("invalid dims should fail")
	}
	if _, err := DecompressRegion([]byte("junk"), 0, 0, 0, grid.D3(1, 1, 1), 0); err == nil {
		t.Error("corrupt stream should fail")
	}
}

// TestRegionDecodesMinimalChunks: on a v2 container the region decoder
// must seek via the index and decode only intersecting chunks — the
// counted helper exposes exactly how many frames it opened.
func TestRegionDecodesMinimalChunks(t *testing.T) {
	v := testVolume(grid.D3(32, 32, 32), 13) // 2x2x2 tiling by 16^3
	stream, _, err := Compress(v, Options{
		Params:    codec.Params{Mode: codec.ModePWE, Tol: 0.05},
		ChunkDims: grid.D3(16, 16, 16),
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		x0, y0, z0 int
		d          grid.Dims
		want       int
	}{
		{0, 0, 0, grid.D3(4, 4, 4), 1},    // corner cutout: 1 of 8
		{20, 20, 20, grid.D3(4, 4, 4), 1}, // interior of the last chunk
		{8, 8, 8, grid.D3(16, 16, 16), 8}, // center straddles all 8
		{0, 0, 0, grid.D3(32, 32, 1), 4},  // one XY plane: a z-layer of 4
		{14, 0, 0, grid.D3(4, 4, 4), 2},   // crosses one x boundary
	}
	for _, c := range cases {
		rg, err := OpenRegion(stream, [3]int{c.x0, c.y0, c.z0}, [3]int{c.d.NX, c.d.NY, c.d.NZ})
		if err != nil {
			t.Fatalf("region %v@(%d,%d,%d): %v", c.d, c.x0, c.y0, c.z0, err)
		}
		if decoded := len(rg.hit); decoded != c.want {
			t.Errorf("region %v@(%d,%d,%d): decoded %d chunks, want %d",
				c.d, c.x0, c.y0, c.z0, decoded, c.want)
		}
	}
}
