package chunk

// Shard merge tests: merging is the convergence primitive under
// replicated ingest, anti-entropy repair, and rejoin, so it must be
// idempotent (self-merge is identity), complementary shards must union
// back to the original bytes, and a damaged frame must always lose to
// an intact copy of the same chunk.

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sperr/internal/codec"
)

func TestMergeShardsSelfIsIdentity(t *testing.T) {
	for _, fx := range sliceFixtures {
		t.Run(fx.name, func(t *testing.T) {
			stream := readFixtureFile(t, fx.path)
			m, err := MergeShards(stream, stream)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(m, stream) {
				t.Fatalf("self-merge differs from input (%d vs %d bytes)", len(m), len(stream))
			}
		})
	}
}

func TestMergeShardsComplementaryUnion(t *testing.T) {
	for _, fx := range sliceFixtures {
		t.Run(fx.name, func(t *testing.T) {
			stream := readFixtureFile(t, fx.path)
			even, err := SliceShard(stream, func(i int) bool { return i%2 == 0 })
			if err != nil {
				t.Fatal(err)
			}
			odd, err := SliceShard(stream, func(i int) bool { return i%2 == 1 })
			if err != nil {
				t.Fatal(err)
			}
			for _, pair := range [][2][]byte{{even, odd}, {odd, even}} {
				m, err := MergeShards(pair[0], pair[1])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(m, stream) {
					t.Fatal("merging complementary shards does not reproduce the original container")
				}
			}
			// Merging a shard with its own subset reproduces the shard.
			sub, err := SliceShard(stream, func(i int) bool { return i == 0 })
			if err != nil {
				t.Fatal(err)
			}
			m, err := MergeShards(even, sub)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(m, even) {
				t.Fatal("merging a shard with a subset of itself changed it")
			}
		})
	}
}

func TestMergeShardsDamagedFrameLosesToIntact(t *testing.T) {
	for _, fx := range sliceFixtures {
		t.Run(fx.name, func(t *testing.T) {
			stream := readFixtureFile(t, fx.path)
			c, err := parseContainer(stream)
			if err != nil {
				t.Fatal(err)
			}
			if len(c.chunks) < 2 {
				t.Skip("need at least 2 chunks")
			}

			// Damage chunk 0's frame payload in a copy of the full stream
			// (payloads alias the backing bytes, so flipping through the
			// parsed view corrupts the copy in place).
			damaged := append([]byte(nil), stream...)
			dc, err := parseContainer(damaged)
			if err != nil {
				t.Fatal(err)
			}
			dc.payloads[0][0] ^= 0xff
			dc.payloads[0][1] ^= 0xff
			if _, dmgOwned := mustOwned(t, damaged); dmgOwned[0] {
				t.Fatal("corruption did not unseat chunk 0")
			}

			// Intact copy wins regardless of argument order.
			for _, pair := range [][2][]byte{{damaged, stream}, {stream, damaged}} {
				m, err := MergeShards(pair[0], pair[1])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(m, stream) {
					t.Fatal("merge with an intact replica did not heal the damaged frame")
				}
			}

			// Damaged in both inputs: the chunk degrades to a stub (leaves
			// the owned set) instead of poisoning the merge.
			m, err := MergeShards(damaged, damaged)
			if err != nil {
				t.Fatal(err)
			}
			owned, set := mustOwned(t, m)
			if set[0] {
				t.Fatalf("chunk 0 still owned after merging two damaged copies (owned %v)", owned)
			}
			for i := 1; i < len(c.chunks); i++ {
				if !set[i] {
					t.Fatalf("merge lost intact chunk %d", i)
				}
			}
		})
	}
}

func TestMergeShardsRefusesForeignShards(t *testing.T) {
	a := readFixtureFile(t, sliceFixtures[0].path)
	b := readFixtureFile(t, sliceFixtures[1].path)
	if _, err := MergeShards(a, b); err == nil {
		t.Fatal("shards of different volumes merged")
	}
}

func mustOwned(t *testing.T, shard []byte) ([]int, map[int]bool) {
	t.Helper()
	owned, err := OwnedChunks(shard)
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[int]bool, len(owned))
	for _, ci := range owned {
		set[ci] = true
	}
	return owned, set
}

// FuzzMergeShards feeds MergeShards the bytes a peer could send: it must
// never panic, and whenever it accepts a pair the result must parse, own
// at least every chunk either input owns, carry each owned chunk's frame
// so that it decodes exactly as from its source, and be a fixed point of
// merging with either input again.
func FuzzMergeShards(f *testing.F) {
	testdata := filepath.Join("..", "..", "testdata")
	var clean [][]byte
	for _, fx := range sliceFixtures {
		stream, err := os.ReadFile(fx.path)
		if err != nil {
			f.Fatal(err)
		}
		even, err := SliceShard(stream, func(i int) bool { return i%2 == 0 })
		if err != nil {
			f.Fatal(err)
		}
		odd, err := SliceShard(stream, func(i int) bool { return i%2 == 1 })
		if err != nil {
			f.Fatal(err)
		}
		clean = append(clean, stream, even, odd)
		f.Add(stream, stream)
		f.Add(even, odd)
		f.Add(odd, stream)
	}
	f.Add(clean[0], clean[3]) // shards of different volumes
	mutants, err := filepath.Glob(filepath.Join(testdata, "mutant_*.sperr"))
	if err != nil || len(mutants) == 0 {
		f.Fatalf("no mutant seeds under %s (err %v)", testdata, err)
	}
	for _, path := range mutants {
		m, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		// The mutants derive from the v2 fixture, so they pair with it and
		// with its slices as damaged replicas of the same volume.
		f.Add(m, clean[0])
		f.Add(clean[1], m)
		f.Add(m, m)
	}

	f.Fuzz(func(t *testing.T, a, b []byte) {
		old := MaxDecodePoints
		MaxDecodePoints = 1 << 20
		defer func() { MaxDecodePoints = old }()

		merged, err := MergeShards(a, b)
		if err != nil {
			return
		}
		cm, err := parseContainer(merged)
		if err != nil {
			t.Fatalf("merged container does not parse: %v", err)
		}
		owned, err := OwnedChunks(merged)
		if err != nil {
			t.Fatalf("OwnedChunks(merged): %v", err)
		}
		has := make(map[int]bool, len(owned))
		for _, i := range owned {
			has[i] = true
		}
		for _, in := range [][]byte{a, b} {
			inOwned, err := OwnedChunks(in)
			if err != nil {
				t.Fatalf("merge accepted an input OwnedChunks rejects: %v", err)
			}
			for _, i := range inOwned {
				if !has[i] {
					t.Fatalf("merge lost chunk %d, intact in an input", i)
				}
			}
		}
		ca, _ := parseContainer(a) // both parsed inside MergeShards
		cb, _ := parseContainer(b)
		scratch := codec.NewScratch()
		for _, i := range owned {
			src := ca
			if classifyFrame(ca, i) != frameIntact {
				src = cb
			}
			if classifyFrame(src, i) != frameIntact {
				t.Fatalf("merge owns chunk %d, intact in neither input", i)
			}
			if !bytes.Equal(cm.payloads[i], src.payloads[i]) || cm.crcs[i] != src.crcs[i] {
				t.Fatalf("chunk %d's frame did not travel verbatim", i)
			}
			dims := cm.chunks[i].Dims
			want, werr := src.decodeChunk(i, dims, nil)
			got, gerr := cm.decodeChunk(i, dims, scratch)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("chunk %d decodes differently after the merge: %v vs %v", i, gerr, werr)
			}
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("chunk %d sample %d differs after the merge", i, k)
				}
			}
		}
		for _, in := range [][]byte{a, b} {
			again, err := MergeShards(merged, in)
			if err != nil || !bytes.Equal(again, merged) {
				t.Fatalf("re-merging an input is not a fixed point (err %v)", err)
			}
		}
	})
}
