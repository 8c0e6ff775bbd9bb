package chunk

import (
	"fmt"

	"sperr/internal/grid"
)

// DecompressRegion reconstructs only the axis-aligned box of size dims
// anchored at (x0, y0, z0), decoding just the chunks that intersect it.
// This is the random-access payoff of the chunked design (Section III-D):
// serving a small cutout of a large archived volume — the access pattern
// of the community databases that motivate the paper — touches a fraction
// of the stream.
func DecompressRegion(stream []byte, x0, y0, z0 int, dims grid.Dims, workers int) (*grid.Volume, error) {
	vol, _, err := decompressRegionCounted(stream, x0, y0, z0, dims, workers)
	return vol, err
}

// decompressRegionCounted is DecompressRegion also reporting how many
// chunks it decoded — the access-cost witness the region tests assert on.
// On v2 containers the frames are located via the index footer, so the
// bytes of non-intersecting frames are never touched (not even for
// checksumming; frame CRCs verify lazily at payload access).
func decompressRegionCounted(stream []byte, x0, y0, z0 int, dims grid.Dims, workers int) (*grid.Volume, int, error) {
	c, err := parseContainer(stream)
	if err != nil {
		return nil, 0, err
	}
	ro, rd := [3]int{x0, y0, z0}, [3]int{dims.NX, dims.NY, dims.NZ}
	if err := grid.CheckBox(ro, rd, [3]int{c.volDims.NX, c.volDims.NY, c.volDims.NZ}); err != nil {
		return nil, 0, fmt.Errorf("chunk: %w", err)
	}
	hit := hitChunks(c.chunks, ro, rd)
	out := grid.NewVolume(dims)
	err = forEachChunkScratch(len(hit), workers, func(k int, ws *workerScratch) error {
		i := hit[k]
		ch := c.chunks[i]
		data, err := c.decodeChunk(i, ch.Dims, ws.codec)
		if err != nil {
			return fmt.Errorf("chunk %d: %w", i, err)
		}
		co, cd := ch.Box()
		o, d, _ := grid.Intersect(ro, rd, co, cd)
		grid.CopyBox(out.Data, ro, rd, data, co, cd, o, d)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return out, len(hit), nil
}

// hitChunks returns the indices of the chunks that intersect the box
// (ro, rd), in container order.
func hitChunks(chunks []grid.Chunk, ro, rd [3]int) []int {
	var hit []int
	for i, ch := range chunks {
		co, cd := ch.Box()
		if _, _, ok := grid.Intersect(ro, rd, co, cd); ok {
			hit = append(hit, i)
		}
	}
	return hit
}

// TouchedChunks reports how many chunks a region decode would visit (for
// access-cost accounting).
func TouchedChunks(stream []byte, x0, y0, z0 int, dims grid.Dims) (touched, total int, err error) {
	c, err := parseContainer(stream)
	if err != nil {
		return 0, 0, err
	}
	hit := hitChunks(c.chunks, [3]int{x0, y0, z0}, [3]int{dims.NX, dims.NY, dims.NZ})
	return len(hit), len(c.chunks), nil
}
