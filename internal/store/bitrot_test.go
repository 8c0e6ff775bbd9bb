package store

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sperr"
)

// TestStoreBitRotLoudOrHarmless sweeps single-bit flips through the frames
// and index footer of a stored container, rewriting the blob on disk
// before each read: a full-volume region read must either fail or return
// samples bit-identical to the undamaged read — never silently wrong
// samples. The cache is off, so every read decodes from the damaged blob.
// The flips step through the container at a prime stride, cycling the
// bit within the byte; the whole sweep runs in about 1.5 s on a 2-CPU
// host (without the race detector).
func TestStoreBitRotLoudOrHarmless(t *testing.T) {
	for _, fx := range []struct {
		name   string
		stride int
	}{
		{"golden_pwe_24x17x9_v2.sperr", 7},
		{"golden_adaptive_48x32x32_v3.sperr", 61},
	} {
		c, err := os.ReadFile(filepath.Join("..", "..", "testdata", fx.name))
		if err != nil {
			t.Fatal(err)
		}
		s := openTestStore(t, Options{})
		meta, _, err := s.Put(c)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		want, _, err := s.Region(ctx, meta.ID, [3]int{}, meta.Dims, 1)
		if err != nil {
			t.Fatal(err)
		}
		var refused, unchanged int
		const fixedHeader = 36 // the flips start at the first frame
		for k, off := 0, fixedHeader; off < len(c); k, off = k+1, off+fx.stride {
			blob := bytes.Clone(c)
			blob[off] ^= 1 << (k % 8)
			if err := os.WriteFile(s.blobPath(meta.ID), blob, 0o644); err != nil {
				t.Fatal(err)
			}
			got, _, err := s.Region(ctx, meta.ID, [3]int{}, meta.Dims, 1)
			switch {
			case err != nil:
				refused++
			case equalFloats(got, want):
				unchanged++
			default:
				t.Errorf("%s: flip of bit %d at byte %d read back as silently wrong samples", fx.name, k%8, off)
			}
		}
		t.Logf("%s: %d flips: %d refused, %d unchanged", fx.name, refused+unchanged, refused, unchanged)
	}
}

// TestStoreRefusesPlantedV1: a store that already holds a retired
// container v1 blob — written before the retirement, since Put now
// refuses v1 — answers a region read of it with an error naming the
// retirement and its upgrade, never with samples. The blob is planted
// under the address of its v2 upgrade, which has the same geometry.
func TestStoreRefusesPlantedV1(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden_pwe_24x17x9.sperr"))
	if err != nil {
		t.Fatal(err)
	}
	up, _, err := sperr.Repair(v1)
	if err != nil {
		t.Fatal(err)
	}
	s := openTestStore(t, Options{CacheSamples: 1 << 20})
	meta, _, err := s.Put(up)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.blobPath(meta.ID), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Region(context.Background(), meta.ID, [3]int{}, meta.Dims, 2)
	if err == nil || got != nil {
		t.Fatalf("region read of a planted v1 blob returned %d samples, err %v", len(got), err)
	}
	if !strings.Contains(err.Error(), "retired") || !strings.Contains(err.Error(), "sperr repair") {
		t.Fatalf("region read of a planted v1 blob: %v, want the retirement named", err)
	}
}
