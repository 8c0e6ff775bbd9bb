package chunk

import (
	"fmt"

	"sperr/internal/codec"
	"sperr/internal/grid"
	"sperr/internal/wavelet"
)

// DecompressPartial reconstructs a volume from a container stream using
// only a fraction of each chunk's embedded SPECK bits — the streaming /
// progressive-access mode enabled by SPECK's embedded bitstreams (paper
// Section VII). fraction = 1 is equivalent to Decompress.
func DecompressPartial(stream []byte, fraction float64, workers int) (*grid.Volume, error) {
	if !(fraction > 0 && fraction <= 1) {
		return nil, fmt.Errorf("chunk: fraction must be in (0, 1], got %g", fraction)
	}
	c, err := parseContainer(stream)
	if err != nil {
		return nil, err
	}
	vol := grid.NewVolume(c.volDims)
	err = forEachChunkScratch(len(c.chunks), workers, func(i int, ws *workerScratch) error {
		ch := c.chunks[i]
		payload, err := c.sperrPayload(i)
		if err != nil {
			return err
		}
		data, err := codec.DecodeChunkPartial(payload, ch.Dims, fraction, ws.codec)
		if err != nil {
			return fmt.Errorf("chunk %d: %w", i, err)
		}
		// data aliases the worker's arena; the copy-out completes here.
		vol.InsertSlice(data, ch.Dims, ch.X0, ch.Y0, ch.Z0)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return vol, nil
}

// DecompressLowRes reconstructs a coarsened volume by leaving the finest
// drop wavelet levels of every chunk folded — the multi-resolution access
// mode of paper Section VII. Each axis of each chunk is ceil-halved once
// per dropped level (chunks too small for that many levels coarsen as far
// as they can), and the coarse chunks are assembled by concatenation in
// the original chunk order. drop = 0 is a full-resolution decode without
// outlier corrections.
//
// The result is a hierarchical approximation, not a pointwise
// subsampling: values are the wavelet approximation band rescaled to data
// magnitude.
func DecompressLowRes(stream []byte, drop, workers int) (*grid.Volume, error) {
	if drop < 0 {
		return nil, fmt.Errorf("chunk: negative drop %d", drop)
	}
	c, err := parseContainer(stream)
	if err != nil {
		return nil, err
	}
	// Coarse geometry: per-axis tile widths shrink independently, so the
	// coarse origin of a chunk is the sum of the coarse widths of the
	// tiles before it along each axis.
	coarseOrigin := func(orig, tile, full int) int {
		o := 0
		for pos := 0; pos < orig; pos += tile {
			w := tile
			if pos+w > full {
				w = full - pos
			}
			o += wavelet.CoarseLen(w, drop)
		}
		return o
	}
	// Total coarse extent per axis = coarse origin of a hypothetical
	// chunk starting at the end of the axis.
	coarseVol := grid.Dims{
		NX: coarseOrigin(c.volDims.NX, clampTile(c.chunkDims.NX, c.volDims.NX), c.volDims.NX),
		NY: coarseOrigin(c.volDims.NY, clampTile(c.chunkDims.NY, c.volDims.NY), c.volDims.NY),
		NZ: coarseOrigin(c.volDims.NZ, clampTile(c.chunkDims.NZ, c.volDims.NZ), c.volDims.NZ),
	}
	vol := grid.NewVolume(coarseVol)
	err = forEachChunkScratch(len(c.chunks), workers, func(i int, ws *workerScratch) error {
		ch := c.chunks[i]
		payload, err := c.sperrPayload(i)
		if err != nil {
			return err
		}
		data, low, err := codec.DecodeChunkLowRes(payload, ch.Dims, drop, ws.codec)
		if err != nil {
			return fmt.Errorf("chunk %d: %w", i, err)
		}
		x0 := coarseOrigin(ch.X0, clampTile(c.chunkDims.NX, c.volDims.NX), c.volDims.NX)
		y0 := coarseOrigin(ch.Y0, clampTile(c.chunkDims.NY, c.volDims.NY), c.volDims.NY)
		z0 := coarseOrigin(ch.Z0, clampTile(c.chunkDims.NZ, c.volDims.NZ), c.volDims.NZ)
		vol.InsertSlice(data, low, x0, y0, z0)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return vol, nil
}

// clampTile mirrors grid.SplitChunks's clamping of oversized or zero
// chunk dims to the volume extent.
func clampTile(tile, full int) int {
	if tile <= 0 || tile > full {
		return full
	}
	return tile
}
