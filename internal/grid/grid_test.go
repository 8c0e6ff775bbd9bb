package grid

import (
	"testing"
	"testing/quick"
)

func TestDimsIndexCoords(t *testing.T) {
	d := D3(5, 7, 3)
	if d.Len() != 105 {
		t.Fatalf("Len = %d, want 105", d.Len())
	}
	seen := make(map[int]bool)
	for z := 0; z < d.NZ; z++ {
		for y := 0; y < d.NY; y++ {
			for x := 0; x < d.NX; x++ {
				i := d.Index(x, y, z)
				if seen[i] {
					t.Fatalf("duplicate index %d", i)
				}
				seen[i] = true
				gx, gy, gz := d.Coords(i)
				if gx != x || gy != y || gz != z {
					t.Fatalf("Coords(%d) = (%d,%d,%d), want (%d,%d,%d)", i, gx, gy, gz, x, y, z)
				}
			}
		}
	}
	if len(seen) != d.Len() {
		t.Fatalf("covered %d indices, want %d", len(seen), d.Len())
	}
}

func TestQuickIndexCoordsInverse(t *testing.T) {
	d := D3(13, 11, 9)
	f := func(i uint16) bool {
		idx := int(i) % d.Len()
		x, y, z := d.Coords(idx)
		return d.Index(x, y, z) == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVolumeAtSet(t *testing.T) {
	v := NewVolume(D3(4, 4, 4))
	v.Set(1, 2, 3, 42)
	if got := v.At(1, 2, 3); got != 42 {
		t.Fatalf("At = %g, want 42", got)
	}
}

func TestCutoutInsertRoundTrip(t *testing.T) {
	d := D3(10, 8, 6)
	v := NewVolume(d)
	for i := range v.Data {
		v.Data[i] = float64(i)
	}
	sub := v.Cutout(2, 1, 3, D3(5, 4, 2))
	for z := 0; z < 2; z++ {
		for y := 0; y < 4; y++ {
			for x := 0; x < 5; x++ {
				if sub.At(x, y, z) != v.At(x+2, y+1, z+3) {
					t.Fatalf("cutout mismatch at (%d,%d,%d)", x, y, z)
				}
			}
		}
	}
	dst := NewVolume(d)
	dst.Insert(sub, 2, 1, 3)
	for z := 0; z < 2; z++ {
		for y := 0; y < 4; y++ {
			for x := 0; x < 5; x++ {
				if dst.At(x+2, y+1, z+3) != sub.At(x, y, z) {
					t.Fatalf("insert mismatch at (%d,%d,%d)", x, y, z)
				}
			}
		}
	}
}

func TestCutoutPanicsOutOfBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewVolume(D3(4, 4, 4)).Cutout(2, 2, 2, D3(4, 4, 4))
}

func TestRange(t *testing.T) {
	v := FromSlice(D2(2, 2), []float64{3, -1, 7, 0})
	lo, hi := v.Range()
	if lo != -1 || hi != 7 {
		t.Fatalf("Range = (%g, %g), want (-1, 7)", lo, hi)
	}
}

func TestFloat32Conversions(t *testing.T) {
	v := FromSlice(D2(2, 2), []float64{1.5, -2.25, 0, 1e10})
	f32 := v.ToFloat32()
	back := FromFloat32(v.Dims, f32)
	for i := range v.Data {
		if float64(float32(v.Data[i])) != back.Data[i] {
			t.Fatalf("idx %d: %g != %g", i, v.Data[i], back.Data[i])
		}
	}
}

func TestSplitChunksExact(t *testing.T) {
	cs := SplitChunks(D3(8, 8, 8), D3(4, 4, 4))
	if len(cs) != 8 {
		t.Fatalf("got %d chunks, want 8", len(cs))
	}
	for _, c := range cs {
		if c.Dims != D3(4, 4, 4) {
			t.Fatalf("chunk dims %v, want 4x4x4", c.Dims)
		}
	}
}

func TestSplitChunksRemainder(t *testing.T) {
	cs := SplitChunks(D3(10, 4, 4), D3(4, 4, 4))
	if len(cs) != 3 {
		t.Fatalf("got %d chunks, want 3", len(cs))
	}
	if cs[2].Dims.NX != 2 {
		t.Fatalf("remainder chunk NX = %d, want 2", cs[2].Dims.NX)
	}
	var pts int
	for _, c := range cs {
		pts += c.Dims.Len()
	}
	if pts != 160 {
		t.Fatalf("chunks cover %d points, want 160", pts)
	}
}

func TestSplitChunksOversized(t *testing.T) {
	cs := SplitChunks(D3(8, 8, 8), D3(256, 256, 256))
	if len(cs) != 1 || cs[0].Dims != D3(8, 8, 8) {
		t.Fatalf("oversized chunk dims should clamp: %+v", cs)
	}
}

func TestSplitChunksZeroDefaults(t *testing.T) {
	cs := SplitChunks(D3(8, 8, 8), Dims{})
	if len(cs) != 1 {
		t.Fatalf("zero chunk dims should mean whole volume, got %d chunks", len(cs))
	}
}

func TestClone(t *testing.T) {
	v := FromSlice(D2(2, 1), []float64{1, 2})
	c := v.Clone()
	c.Data[0] = 99
	if v.Data[0] != 1 {
		t.Fatal("Clone did not deep-copy")
	}
}

// TestIntersectCopyBoxMatchesCutout assembles an odd interior box of a
// volume from its chunks with Intersect + CopyBox and requires exactly the
// samples Cutout reads directly; disjoint boxes must not intersect.
func TestIntersectCopyBoxMatchesCutout(t *testing.T) {
	v := NewVolume(D3(11, 7, 5))
	for i := range v.Data {
		v.Data[i] = float64(i)
	}
	ro, rd := [3]int{3, 1, 2}, [3]int{7, 5, 3}
	got := make([]float64, rd[0]*rd[1]*rd[2])
	hits := 0
	for _, ch := range SplitChunks(v.Dims, D3(4, 3, 2)) {
		co, cd := ch.Box()
		o, d, ok := Intersect(ro, rd, co, cd)
		if !ok {
			continue
		}
		hits++
		slab := v.Cutout(ch.X0, ch.Y0, ch.Z0, ch.Dims).Data
		CopyBox(got, ro, rd, slab, co, cd, o, d)
	}
	want := v.Cutout(ro[0], ro[1], ro[2], D3(rd[0], rd[1], rd[2])).Data
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d = %v, want %v (%d chunks hit)", i, got[i], want[i], hits)
		}
	}
	if _, _, ok := Intersect(ro, rd, [3]int{0, 0, 0}, [3]int{3, 7, 5}); ok {
		t.Fatal("boxes sharing only a face intersect")
	}
}

// TestCheckBoxOverflow: boxes whose origin plus extent wraps int are
// refused on every axis, as are empty, negative and overhanging boxes;
// the whole volume and its last voxel are accepted.
func TestCheckBoxOverflow(t *testing.T) {
	const big = int(^uint(0) >> 1)
	vol := [3]int{24, 17, 9}
	for _, c := range []struct {
		origin, dims [3]int
		ok           bool
	}{
		{[3]int{0, 0, 0}, vol, true},
		{[3]int{23, 16, 8}, [3]int{1, 1, 1}, true},
		{[3]int{1, 0, 0}, [3]int{big, 1, 1}, false},
		{[3]int{0, 1, 0}, [3]int{1, big, 1}, false},
		{[3]int{0, 0, 1}, [3]int{1, 1, big}, false},
		{[3]int{big, 0, 0}, [3]int{1, 1, 1}, false},
		{[3]int{0, big, 0}, [3]int{1, 1, 1}, false},
		{[3]int{0, 0, big}, [3]int{1, 1, 1}, false},
		{[3]int{1, 0, 0}, vol, false},
		{[3]int{0, 0, 0}, [3]int{0, 1, 1}, false},
		{[3]int{-1, 0, 0}, [3]int{1, 1, 1}, false},
	} {
		if err := CheckBox(c.origin, c.dims, vol); (err == nil) != c.ok {
			t.Errorf("CheckBox(%v, %v, %v) = %v, want ok %v", c.origin, c.dims, vol, err, c.ok)
		}
	}
}
