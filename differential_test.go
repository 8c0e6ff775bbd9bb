package sperr

// Differential read-path test (the chunk-layer slice of ROADMAP item 7).
// One set of containers — the frozen v2 and v3 fixtures, the frozen v1
// fixture as Repair upgrades it, plus freshly compressed odd-dimension
// volumes in every mode and fixed backend — goes
// through every way this package can read a container: one-shot decode at
// several worker counts, the streaming Decoder, region decode, salvage and
// audit of the undamaged stream, repair, and shard slice/merge round
// trips. Every path must produce identical sample bits, and identical
// container bytes wherever a doc comment promises them. The test asserts
// nothing about *how* a path reads the container, so it stays unmodified
// across refactors of the chunk layer and is their safety net.

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

type diffCase struct {
	name   string
	stream []byte
}

// diffCases builds the container set. The fresh volumes are small (a few
// thousand points) so that adaptive selection and five backends stay cheap.
func diffCases(t *testing.T) []diffCase {
	t.Helper()
	cases := []diffCase{{"golden_pwe_24x17x9.sperr", upgradedV1Fixture(t)}} // retired v1, upgraded
	for _, name := range []string{
		"golden_pwe_24x17x9_v2.sperr",       // v2
		"golden_adaptive_48x32x32_v3.sperr", // v3
	} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("fixture %s: %v", name, err)
		}
		cases = append(cases, diffCase{name, b})
	}
	const tol = 1e-2
	for _, g := range []struct {
		name        string
		dims, chunk [3]int
	}{
		{"19x24x10", [3]int{19, 24, 10}, [3]int{8, 9, 7}},
		{"37x5x64", [3]int{37, 5, 64}, [3]int{16, 4, 24}},
	} {
		data := hetField(g.dims[0], g.dims[1], g.dims[2], 11)
		opts := func(codecName string) *Options {
			return &Options{ChunkDims: g.chunk, Workers: 2, Codec: codecName}
		}
		add := func(mode string, stream []byte, err error) {
			if err != nil {
				t.Fatalf("%s/%s: compress: %v", g.name, mode, err)
			}
			cases = append(cases, diffCase{g.name + "/" + mode, stream})
		}
		s, _, err := CompressPWE(data, g.dims, tol, opts(""))
		add("pwe", s, err)
		s, _, err = CompressBPP(data, g.dims, 4, opts(""))
		add("bpp", s, err)
		s, _, err = CompressRMSE(data, g.dims, 0.05, opts(""))
		add("rmse", s, err)
		s, _, err = CompressAdaptive(data, g.dims, tol, opts(""))
		add("adaptive", s, err)
		for _, name := range []string{"sperr", "sz", "zfp", "tthresh", "mgard"} {
			s, _, err = CompressPWE(data, g.dims, tol, opts(name))
			add("codec-"+name, s, err)
		}
	}
	return cases
}

// sameBits fails unless got and want hold identical float64 bit patterns.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: sample %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// allRecovered fails unless rep describes an undamaged container.
func allRecovered(t *testing.T, what string, rep *SalvageReport, version int) {
	t.Helper()
	if rep.Version != version || rep.Recovered != rep.NumChunks || rep.Skipped != 0 ||
		rep.Degraded() || len(rep.LostRanges) != 0 || rep.Resynced {
		t.Fatalf("%s: undamaged stream reported %+v", what, rep)
	}
	if !rep.IndexIntact {
		t.Fatalf("%s: IndexIntact = false on a v%d container", what, version)
	}
	for _, c := range rep.Chunks {
		if !c.Recovered || c.Reason != "" || c.Offset < 0 {
			t.Fatalf("%s: chunk outcome %+v", what, c)
		}
	}
}

func TestReadPathsAgree(t *testing.T) {
	for _, tc := range diffCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			stream := tc.stream
			want, dims, err := Decompress(stream)
			if err != nil {
				t.Fatalf("Decompress: %v", err)
			}
			info, err := Describe(stream)
			if err != nil {
				t.Fatalf("Describe: %v", err)
			}
			if info.Dims != dims || info.CompressedBytes != len(stream) {
				t.Fatalf("Describe: dims %v bytes %d, decode dims %v stream %d",
					info.Dims, info.CompressedBytes, dims, len(stream))
			}
			n := info.NumChunks

			// One-shot decode at explicit worker counts.
			for w := 1; w <= 3; w++ {
				got, gd, err := DecompressWorkers(stream, w)
				if err != nil || gd != dims {
					t.Fatalf("DecompressWorkers(%d): dims %v err %v", w, gd, err)
				}
				sameBits(t, "DecompressWorkers", got, want)
			}

			// Streaming decoder, both surfaces.
			dec, err := NewDecoder(bytes.NewReader(stream))
			if err != nil {
				t.Fatalf("NewDecoder: %v", err)
			}
			if dec.FormatVersion() != info.Version || dec.NumChunks() != n {
				t.Fatalf("Decoder: v%d %d chunks, Describe v%d %d",
					dec.FormatVersion(), dec.NumChunks(), info.Version, n)
			}
			got, gd, err := dec.DecodeAll()
			if err != nil || gd != dims {
				t.Fatalf("DecodeAll: dims %v err %v", gd, err)
			}
			sameBits(t, "DecodeAll", got, want)

			dec, err = NewDecoder(bytes.NewReader(stream))
			if err != nil {
				t.Fatalf("NewDecoder: %v", err)
			}
			dec.SetWorkers(2)
			var mu sync.Mutex
			seen := make([]int, n)
			err = dec.ForEachChunk(func(c DecodedChunk) error {
				mu.Lock()
				seen[c.Index]++
				mu.Unlock()
				if c.Origin != info.Chunks[c.Index].Origin || c.Dims != info.Chunks[c.Index].Dims {
					t.Errorf("ForEachChunk: chunk %d at %v %v, Describe says %v %v",
						c.Index, c.Origin, c.Dims, info.Chunks[c.Index].Origin, info.Chunks[c.Index].Dims)
				}
				sameBits(t, "ForEachChunk", c.Data, cutout(want, dims, c.Origin, c.Dims))
				return nil
			})
			if err != nil {
				t.Fatalf("ForEachChunk: %v", err)
			}
			for i, k := range seen {
				if k != 1 {
					t.Fatalf("ForEachChunk delivered chunk %d %d times", i, k)
				}
			}

			// Region decode: the full box, and an odd interior box that
			// crosses chunk boundaries on every axis that has more than one.
			full, err := DecompressRegion(stream, [3]int{}, dims)
			if err != nil {
				t.Fatalf("DecompressRegion(full): %v", err)
			}
			sameBits(t, "DecompressRegion(full)", full, want)
			var origin, box [3]int
			for a := 0; a < 3; a++ {
				origin[a] = dims[a] / 3
				box[a] = dims[a] - origin[a] - dims[a]/5
			}
			for w := 1; w <= 2; w++ {
				reg, err := DecompressRegionWorkers(stream, origin, box, w)
				if err != nil {
					t.Fatalf("DecompressRegion(%v@%v): %v", box, origin, err)
				}
				sameBits(t, "DecompressRegion(interior)", reg, cutout(want, dims, origin, box))
			}

			// Salvage and audit of the undamaged stream.
			sal, sd, rep, err := DecompressSalvage(stream)
			if err != nil || sd != dims {
				t.Fatalf("DecompressSalvage: dims %v err %v", sd, err)
			}
			sameBits(t, "DecompressSalvage", sal, want)
			allRecovered(t, "DecompressSalvage", rep, info.Version)
			rep, err = Audit(stream)
			if err != nil {
				t.Fatalf("Audit: %v", err)
			}
			allRecovered(t, "Audit", rep, info.Version)

			// Repair of the undamaged stream gives it back byte for byte.
			fixed, rep, err := Repair(stream)
			if err != nil {
				t.Fatalf("Repair: %v", err)
			}
			allRecovered(t, "Repair", rep, info.Version)
			if !bytes.Equal(fixed, stream) {
				t.Fatalf("Repair changed an undamaged v%d container", info.Version)
			}

			// Shard slice/merge round trips.
			even := func(i int) bool { return i%2 == 0 }
			odd := func(i int) bool { return i%2 == 1 }
			all, err := SliceShard(stream, func(int) bool { return true })
			if err != nil || !bytes.Equal(all, stream) {
				t.Fatalf("SliceShard(keep all) is not the identity (err %v)", err)
			}
			a, err := SliceShard(stream, even)
			if err != nil {
				t.Fatalf("SliceShard(even): %v", err)
			}
			b, err := SliceShard(stream, odd)
			if err != nil {
				t.Fatalf("SliceShard(odd): %v", err)
			}
			for _, sh := range []struct {
				name  string
				bytes []byte
				keep  func(int) bool
			}{{"even", a, even}, {"odd", b, odd}} {
				owned, err := OwnedChunks(sh.bytes)
				if err != nil {
					t.Fatalf("OwnedChunks(%s): %v", sh.name, err)
				}
				var wantOwned []int
				for i := 0; i < n; i++ {
					if sh.keep(i) {
						wantOwned = append(wantOwned, i)
					}
				}
				if len(owned) != len(wantOwned) || (len(owned) > 0 && !reflect.DeepEqual(owned, wantOwned)) {
					t.Fatalf("OwnedChunks(%s) = %v, want %v", sh.name, owned, wantOwned)
				}
				sinfo, err := Describe(sh.bytes)
				if err != nil {
					t.Fatalf("Describe(%s shard): %v", sh.name, err)
				}
				if sinfo.Version != info.Version || sinfo.Dims != info.Dims || sinfo.ChunkDims != info.ChunkDims ||
					sinfo.Mode != info.Mode || sinfo.Tolerance != info.Tolerance ||
					sinfo.SpeckBits != info.SpeckBits || sinfo.OutlierBits != info.OutlierBits ||
					!reflect.DeepEqual(sinfo.Chunks, info.Chunks) ||
					!reflect.DeepEqual(sinfo.CodecCounts, info.CodecCounts) {
					t.Fatalf("Describe(%s shard) lost the volume's contract:\n got %+v\nwant %+v", sh.name, sinfo, info)
				}
				// Every owned chunk decodes from the shard to the same bits.
				for _, i := range owned {
					c := info.Chunks[i]
					reg, err := DecompressRegion(sh.bytes, c.Origin, c.Dims)
					if err != nil {
						t.Fatalf("DecompressRegion(%s shard, chunk %d): %v", sh.name, i, err)
					}
					sameBits(t, "shard chunk", reg, cutout(want, dims, c.Origin, c.Dims))
				}
				self, err := MergeShards(sh.bytes, sh.bytes)
				if err != nil || !bytes.Equal(self, sh.bytes) {
					t.Fatalf("MergeShards(%s, %s) is not the identity (err %v)", sh.name, sh.name, err)
				}
				sup, err := MergeShards(stream, sh.bytes)
				if err != nil || !bytes.Equal(sup, stream) {
					t.Fatalf("MergeShards(full, %s) is not the full container (err %v)", sh.name, err)
				}
			}
			for _, pair := range [][2][]byte{{a, b}, {b, a}, {stream, stream}} {
				merged, err := MergeShards(pair[0], pair[1])
				if err != nil {
					t.Fatalf("MergeShards: %v", err)
				}
				if !bytes.Equal(merged, stream) {
					t.Fatalf("merging complementary shards did not reproduce the container")
				}
				minfo, err := Describe(merged)
				if err != nil || !reflect.DeepEqual(minfo, info) {
					t.Fatalf("Describe(merged) = %+v (err %v), want %+v", minfo, err, info)
				}
			}
		})
	}
}
