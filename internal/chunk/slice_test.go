package chunk

// Shard slicing tests: a shard must stay a valid container whose kept
// chunks decode bit-identically, whose stubs audit as non-recoverable,
// and whose keep-all slice reproduces the input byte for byte — on both
// the v2 golden fixture and the v3 adaptive one.

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sperr/internal/codec"
	"sperr/internal/grid"
)

var sliceFixtures = []struct{ name, path string }{
	{"v2", filepath.Join("..", "..", "testdata", "golden_pwe_24x17x9_v2.sperr")},
	{"v3", filepath.Join("..", "..", "testdata", "golden_adaptive_48x32x32_v3.sperr")},
}

func readFixtureFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSliceShardKeepAllIsIdentity(t *testing.T) {
	for _, fx := range sliceFixtures {
		t.Run(fx.name, func(t *testing.T) {
			stream := readFixtureFile(t, fx.path)
			shard, err := SliceShard(stream, func(int) bool { return true })
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(shard, stream) {
				t.Fatalf("keep-all shard differs from input (%d vs %d bytes)", len(shard), len(stream))
			}
		})
	}
}

func TestSliceShardOwnedChunksDecodeIdentically(t *testing.T) {
	for _, fx := range sliceFixtures {
		t.Run(fx.name, func(t *testing.T) {
			stream := readFixtureFile(t, fx.path)
			info, err := Describe(stream)
			if err != nil {
				t.Fatal(err)
			}
			if info.NumChunks < 2 {
				t.Fatalf("fixture has %d chunks; need >= 2 to slice", info.NumChunks)
			}
			// Keep the even chunks; the odd ones become stubs.
			keep := func(i int) bool { return i%2 == 0 }
			shard, err := SliceShard(stream, keep)
			if err != nil {
				t.Fatal(err)
			}
			if len(shard) >= len(stream) {
				t.Fatalf("shard (%d bytes) not smaller than container (%d bytes)", len(shard), len(stream))
			}

			// The shard still describes the full volume.
			sInfo, err := Describe(shard)
			if err != nil {
				t.Fatalf("shard does not describe: %v", err)
			}
			if sInfo.VolumeDims != info.VolumeDims || sInfo.NumChunks != info.NumChunks {
				t.Fatalf("shard geometry %v/%d, want %v/%d",
					sInfo.VolumeDims, sInfo.NumChunks, info.VolumeDims, info.NumChunks)
			}
			for i, ci := range sInfo.Chunks {
				if ci.Codec != info.Chunks[i].Codec {
					t.Fatalf("chunk %d codec %v, want %v", i, ci.Codec, info.Chunks[i].Codec)
				}
			}

			// Kept chunks decode bit-identically through the region path.
			for i, ci := range info.Chunks {
				if !keep(i) {
					continue
				}
				want, err := DecompressRegion(stream, ci.Origin[0], ci.Origin[1], ci.Origin[2], ci.Dims, 1)
				if err != nil {
					t.Fatalf("chunk %d from container: %v", i, err)
				}
				got, err := DecompressRegion(shard, ci.Origin[0], ci.Origin[1], ci.Origin[2], ci.Dims, 1)
				if err != nil {
					t.Fatalf("chunk %d from shard: %v", i, err)
				}
				for k := range want.Data {
					if math.Float64bits(want.Data[k]) != math.Float64bits(got.Data[k]) {
						t.Fatalf("chunk %d sample %d differs", i, k)
					}
				}
			}

			// The audit sees exactly the kept chunks as recoverable, with an
			// intact footer and every stub at most StubFrameMaxLen bytes.
			rep, err := Audit(shard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.IndexIntact {
				t.Fatal("shard footer not intact under audit")
			}
			if rep.Resynced {
				t.Fatal("shard audit resynced")
			}
			for i, co := range rep.Chunks {
				if keep(i) != co.Recovered {
					t.Fatalf("chunk %d recovered=%v, keep=%v", i, co.Recovered, keep(i))
				}
				if !co.Recovered && co.Length > StubFrameMaxLen {
					t.Fatalf("stub chunk %d indexed at %d bytes (> %d)", i, co.Length, StubFrameMaxLen)
				}
			}

			// A stub chunk must fail decode loudly, never yield silent data.
			for i, ci := range info.Chunks {
				if keep(i) {
					continue
				}
				if _, err := DecompressRegion(shard, ci.Origin[0], ci.Origin[1], ci.Origin[2], ci.Dims, 1); err == nil {
					t.Fatalf("stub chunk %d decoded without error", i)
				}
				break
			}
		})
	}
}

func TestSliceShardRejectsV1(t *testing.T) {
	stream := readFixtureFile(t, filepath.Join("..", "..", "testdata", "golden_pwe_24x17x9.sperr"))
	if _, err := SliceShard(stream, func(int) bool { return true }); err == nil {
		t.Fatal("slicing a v1 container succeeded; want error")
	}
}

// A v3 frame the shard does not keep is still looked at: an empty one (no
// tag byte at all) is damage and fails the slice, while one whose tag
// disagrees with the footer's codec map becomes a stub carrying the map's
// tag, so shard stubs always agree with their own index.
func TestSliceShardTaggedNonKeptFrames(t *testing.T) {
	c, err := parseContainer(readFixtureFile(t, sliceFixtures[1].path))
	if err != nil {
		t.Fatal(err)
	}
	const victim = 1
	reframe := func(payload []byte) []byte {
		var buf bytes.Buffer
		fw, _ := newFrameWriter(&buf, c.layout, c.volDims, c.chunkDims, len(c.chunks))
		for i, p := range c.payloads {
			if i == victim {
				p = payload
			}
			_ = fw.frame(p, frameCRC(p))
		}
		_, _ = fw.finish(c.codecs, c.agg)
		return buf.Bytes()
	}
	others := func(i int) bool { return i != victim }

	if _, err := SliceShard(reframe(nil), others); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty non-kept v3 frame: %v, want ErrCorrupt", err)
	}

	forged := append([]byte(nil), c.payloads[victim]...)
	forged[0] ^= 1
	shard, err := SliceShard(reframe(forged), others)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := parseContainer(shard)
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{byte(c.codecs[victim])}; !bytes.Equal(sc.payloads[victim], want) {
		t.Fatalf("stub of a mis-tagged frame is %v, want the codec map's tag %v", sc.payloads[victim], want)
	}
	want, err := SliceShard(reframe(c.payloads[victim]), others)
	if err != nil || !bytes.Equal(shard, want) {
		t.Fatalf("shard of the mis-tagged container differs from the clean container's (err %v)", err)
	}
}

func TestSliceShardKeepNone(t *testing.T) {
	// An all-stub shard (a peer owning no chunks of a volume) still
	// describes the geometry — that is what lets every node coordinate.
	vol := grid.NewVolume(grid.D3(20, 11, 6))
	for i := range vol.Data {
		vol.Data[i] = math.Sin(0.1 * float64(i))
	}
	stream, _, err := Compress(vol, Options{
		Params:    codec.Params{Mode: codec.ModePWE, Tol: 1e-3},
		ChunkDims: grid.D3(8, 8, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	shard, err := SliceShard(stream, func(int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	info, err := Describe(shard)
	if err != nil {
		t.Fatal(err)
	}
	if info.VolumeDims != vol.Dims || info.NumChunks != 6 {
		t.Fatalf("all-stub shard describes %v/%d chunks", info.VolumeDims, info.NumChunks)
	}
	rep, err := Audit(shard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != 0 || !rep.IndexIntact {
		t.Fatalf("all-stub shard: recovered %d, index intact %v", rep.Recovered, rep.IndexIntact)
	}
	// A strict sequential decode reads each stub as a frame and must fail
	// on its empty payload with a cause; the streaming reader once took
	// the empty payload for its own fill request and wrapped a nil error.
	if _, err := Decompress(shard, 1); err == nil || strings.Contains(err.Error(), "%!") {
		t.Fatalf("strict decode of an all-stub shard: %v", err)
	}
}
