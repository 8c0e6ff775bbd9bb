package chunk

import (
	"context"
	"fmt"

	"sperr/internal/codec"
	"sperr/internal/grid"
)

// DecompressRegion reconstructs only the axis-aligned box of size dims
// anchored at (x0, y0, z0), decoding just the chunks that intersect it.
// This is the random-access payoff of the chunked design (Section III-D):
// serving a small cutout of a large archived volume — the access pattern
// of the community databases that motivate the paper — touches a fraction
// of the stream. On v2 containers the frames are located via the index
// footer, so the bytes of non-intersecting frames are never touched (not
// even for checksumming; frame CRCs verify lazily at payload access).
func DecompressRegion(stream []byte, x0, y0, z0 int, dims grid.Dims, workers int) (*grid.Volume, error) {
	ro, rd := [3]int{x0, y0, z0}, [3]int{dims.NX, dims.NY, dims.NZ}
	rg, err := OpenRegion(stream, ro, rd)
	if err != nil {
		return nil, err
	}
	out := grid.NewVolume(dims)
	err = rg.Read(context.TODO(), workers, func(o, d, co, cd [3]int, data []float64) error {
		grid.CopyBox(out.Data, ro, rd, data, co, cd, o, d)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Region is the box origin+dims of a parsed container of VolumeDims tiled
// by ChunkDims, and the chunks the box intersects.
type Region struct {
	VolumeDims, ChunkDims [3]int
	c                     *container
	origin, dims          [3]int
	hit                   []int
}

// OpenRegion parses stream once, checks the box origin+dims against its
// volume and selects the chunks the box intersects. A shard's stub frames
// cannot decode, so a hit stub is refused here, from the index, before a
// caller allocates an output or commits to a response.
func OpenRegion(stream []byte, origin, dims [3]int) (*Region, error) {
	c, err := parseContainer(stream)
	if err != nil {
		return nil, err
	}
	rg := &Region{c: c, origin: origin, dims: dims,
		VolumeDims: [3]int{c.volDims.NX, c.volDims.NY, c.volDims.NZ},
		ChunkDims:  [3]int{c.chunkDims.NX, c.chunkDims.NY, c.chunkDims.NZ}}
	if err := grid.CheckBox(origin, dims, rg.VolumeDims); err != nil {
		return nil, fmt.Errorf("chunk: %w", err)
	}
	for i, ch := range c.chunks {
		co, cd := ch.Box()
		if _, _, ok := grid.Intersect(origin, dims, co, cd); !ok {
			continue
		}
		if len(c.payloads[i]) <= StubFrameMaxLen {
			return nil, fmt.Errorf("%w: chunk %d is a shard stub", ErrCorrupt, i)
		}
		rg.hit = append(rg.hit, i)
	}
	return rg, nil
}

// Read decodes the region's chunks, up to workers at a time, and hands fn
// each chunk's piece of the box, on the calling goroutine: the part o+d of
// the box that lies in the chunk's box co+cd, whose samples data holds
// (x-fastest over co+cd, to be copied out before fn returns). The first
// decode or fn error stops the read and is returned.
func (rg *Region) Read(ctx context.Context, workers int, fn func(o, d, co, cd [3]int, data []float64) error) error {
	return rg.c.read(ctx, rg.hit, workers, func(i int, data []float64, err error) error {
		if err != nil {
			return err
		}
		co, cd := rg.c.chunks[i].Box()
		o, d, _ := grid.Intersect(rg.origin, rg.dims, co, cd)
		return fn(o, d, co, cd, data)
	})
}

// ReadChunks parses stream once and decodes its chunks idx
// (container-order indices) under decodeEach's contract: fn gets each
// chunk's samples (x-fastest over the chunk's box, to be copied out before
// fn returns) or its error, on the calling goroutine, and an fn error
// stops the read. A stream that does not parse is every chunk's error.
func ReadChunks(ctx context.Context, stream []byte, idx []int, workers int, fn func(i int, data []float64, err error) error) error {
	c, err := parseContainer(stream)
	if err != nil {
		for _, i := range idx {
			if err := fn(i, nil, err); err != nil {
				return err
			}
		}
		return nil
	}
	return c.read(ctx, idx, workers, fn)
}

// read decodes c's chunks idx on decodeEach with the strict frame decoder.
func (c *container) read(ctx context.Context, idx []int, workers int, fn func(i int, data []float64, err error) error) error {
	return decodeEach(ctx, len(idx), workers, func(k int, s *codec.Scratch) ([]float64, error) {
		i := idx[k]
		if i < 0 || i >= len(c.chunks) {
			return nil, fmt.Errorf("chunk: index %d outside %d chunks", i, len(c.chunks))
		}
		data, err := c.decodeChunk(i, c.chunks[i].Dims, s)
		if err != nil {
			return nil, fmt.Errorf("chunk %d: %w", i, err)
		}
		return data, nil
	}, func(k int, data []float64, err error) error { return fn(idx[k], data, err) })
}
