package sperr

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"sperr/internal/grid"
	"sperr/internal/synth"
)

// TestGoldenModeHashes pins the streams no testdata/ fixture covers: the
// RMSE-, PSNR- and rate-targeted modes. A ModeRMSE stream is cut at the
// first plane boundary whose recorded coefficient-domain error meets the
// target, so the plane-error record
// decides bytes on disk; the hashes below were taken on the tree before
// that record moved from an inline ledger to an on-demand call, and must
// never be edited by a change that claims "no stream byte moves". Each
// case runs at Workers 1 and 2 (the determinism contract) against the
// same hash.
func TestGoldenModeHashes(t *testing.T) {
	type field struct {
		name  string
		data  []float64
		dims  [3]int
		chunk [3]int
	}
	fields := []field{
		{"24x17x9", demoField(24, 17, 9, 7), [3]int{24, 17, 9}, [3]int{16, 16, 16}},
		{"miranda40", synth.MirandaPressure(grid.D3(40, 40, 40), 3).Data, [3]int{40, 40, 40}, [3]int{32, 32, 32}},
	}
	type compress func(f field, o *Options) ([]byte, *Stats, error)
	rmse := func(target float64) compress {
		return func(f field, o *Options) ([]byte, *Stats, error) { return CompressRMSE(f.data, f.dims, target, o) }
	}
	psnr := func(db float64) compress {
		return func(f field, o *Options) ([]byte, *Stats, error) { return CompressPSNR(f.data, f.dims, db, o) }
	}
	bpp := func(rate float64) compress {
		return func(f field, o *Options) ([]byte, *Stats, error) { return CompressBPP(f.data, f.dims, rate, o) }
	}
	for _, tc := range []struct {
		field int
		name  string
		run   compress
		want  string
	}{
		{0, "rmse=0.5", rmse(0.5), "87ff0834904adfde77f234cd8426b45ec45370d5d805c3e718df392ff5c2470f"},
		{0, "rmse=0.01", rmse(0.01), "808593b9be1773ee37ec687d3c934f4279e9bbf865bc84f99bf8536b669f9a9e"},
		{0, "psnr=40", psnr(40), "9f71872880ee86b52d4b0e5105f317a720f419b73b8a7b4be4b5d2925e819d7a"},
		{0, "psnr=90", psnr(90), "e4c80d67456adbc549bc0f3bcf0c2b5d1c0d796510e540cb8d0b0183d91e1f02"},
		{0, "bpp=1", bpp(1), "4e13724e60427d0986dd1834a789f888c9789b2977cf7aff22716bd7549f9fbf"},
		{0, "bpp=6.5", bpp(6.5), "fe29d9489fce80cb21cfee8ad7f82e760d164cbf3626c26e26ffbc5a8ff47309"},
		{1, "rmse=1e-2", rmse(1e-2), "80b363870b7b153c7a5f76f285737135e530954c289506060a9b8837fcd25852"},
		{1, "rmse=1e-5", rmse(1e-5), "688a7e2ab4d3bc8c21801ca2944d6b87cf3bb01697491833c435a236b08a29c2"},
		{1, "psnr=50", psnr(50), "212f182c7f0e51614aca6bc2d53b93ee01c543a1b863f4ce0f33f48ca6f68727"},
		{1, "psnr=110", psnr(110), "32c8eedfe7d3a4f73f473469520588fb434cae0e877e4dc1db423f1f26a35347"},
		{1, "bpp=0.75", bpp(0.75), "56a11abde2dfdfe523570e481a01a04b847df8b0b487dc0d964b66a8d775b5f1"},
		{1, "bpp=12", bpp(12), "1fd94d25404b61f8205f1de81300951f8c594625ebb2de398ea7f0862c551aa0"},
	} {
		f := fields[tc.field]
		for _, workers := range []int{1, 2} {
			stream, _, err := tc.run(f, &Options{ChunkDims: f.chunk, Workers: workers})
			if err != nil {
				t.Fatalf("%s %s workers=%d: %v", f.name, tc.name, workers, err)
			}
			sum := sha256.Sum256(stream)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("%s %s workers=%d: %d bytes, sha256 %s, want %s", f.name, tc.name, workers, len(stream), got, tc.want)
			}
		}
	}
}
