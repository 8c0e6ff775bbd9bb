package sperr

import "testing"

func TestDescribe(t *testing.T) {
	dims := [3]int{24, 24, 24}
	data := demoField(24, 24, 24, 23)
	tol := 0.01
	stream, st, err := CompressPWE(data, dims, tol, &Options{ChunkDims: [3]int{12, 12, 12}})
	if err != nil {
		t.Fatal(err)
	}
	fi, err := Describe(stream)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Dims != dims {
		t.Errorf("Dims = %v, want %v", fi.Dims, dims)
	}
	if fi.ChunkDims != [3]int{12, 12, 12} {
		t.Errorf("ChunkDims = %v", fi.ChunkDims)
	}
	if fi.NumChunks != 8 {
		t.Errorf("NumChunks = %d, want 8", fi.NumChunks)
	}
	if fi.CompressedBytes != len(stream) || fi.CompressedBytes != st.CompressedBytes {
		t.Errorf("CompressedBytes = %d, want %d", fi.CompressedBytes, len(stream))
	}
	if fi.Mode != "pwe" || fi.Tolerance != tol {
		t.Errorf("Mode/Tolerance = %q/%g", fi.Mode, fi.Tolerance)
	}
	if fi.SpeckBits != st.SpeckBits || fi.OutlierBits != st.OutlierBits {
		t.Errorf("bit totals %d/%d, want %d/%d",
			fi.SpeckBits, fi.OutlierBits, st.SpeckBits, st.OutlierBits)
	}
}

func TestDescribeModes(t *testing.T) {
	dims := [3]int{16, 16, 16}
	data := demoField(16, 16, 16, 29)
	bppStream, _, err := CompressBPP(data, dims, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := Describe(bppStream)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode != "bpp" {
		t.Errorf("Mode = %q, want bpp", fi.Mode)
	}
	rmseStream, _, err := CompressRMSE(data, dims, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err = Describe(rmseStream); err != nil || fi.Mode != "rmse" {
		t.Errorf("Mode = %q (err %v), want rmse", fi.Mode, err)
	}
	if _, err := Describe([]byte("nope")); err == nil {
		t.Error("garbage should fail")
	}
}
