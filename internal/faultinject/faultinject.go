// Package faultinject generates deterministic corruption campaigns over
// SPERR container streams: every frame-boundary truncation plus a
// stratified sweep of single-byte flips and zeroed runs across the fixed
// header, each frame body, and the index footer, and two-site flips that
// damage an interior frame and the index body, or an interior frame and
// the footer's tail, at once. The campaign is
// pure — no randomness, no clock — so a mutant that fails reproduces
// forever, and each mutant carries the ground truth the salvage tests
// assert against: which chunks' frames the mutation left byte-identical
// and fully present.
package faultinject

import (
	"bytes"
	"fmt"
	"sort"

	"sperr/internal/chunk"
)

// Mutant is one deterministic corruption of a container stream.
type Mutant struct {
	// Name identifies the mutation (operation + byte position), stable
	// across runs: "truncate@120", "flip@57&80", "zero@200+8".
	Name string
	// Region classifies where the damage landed: "header", "frame",
	// "footer", "frame+footer" for two-site mutants, or "cut" for
	// truncations.
	Region string
	// Data is the mutated stream (an independent copy).
	Data []byte
	// HeaderIntact reports that the 36-byte fixed header survived — the
	// precondition for salvage to attribute anything at all.
	HeaderIntact bool
	// IntactChunks lists the chunks whose complete frame byte range
	// (length prefix through trailing CRC) is present and byte-identical
	// in Data. Salvage must recover at least this set (intact header).
	IntactChunks []int
	// PayloadIntact lists the chunks whose payload bytes are present and
	// byte-identical, regardless of damage to the length prefix or the
	// trailing CRC — such a chunk may still verify through the index
	// footer's copy of its checksum. Salvage must never recover a chunk
	// outside this set: that would mean delivering damaged samples as
	// good. IntactChunks is always a subset.
	PayloadIntact []int
}

// layout is the byte map of a container.
type layout struct {
	size int
	// frames[i] is the [start, end) byte range of chunk i's full frame:
	// length prefix, payload, and trailing CRC.
	frames [][2]int
	// footer is the [start, end) range of the index footer, after the
	// last frame.
	footer [2]int
}

// describe maps an intact container's frames from its index footer, as
// chunk.Describe reports them: a frame is its u32 length prefix, the
// payload and the u32 CRC, and frames are contiguous up to the footer.
// The input must be undamaged — campaigns mutate copies of a golden
// stream.
func describe(stream []byte) (*layout, error) {
	info, err := chunk.Describe(stream)
	if err != nil {
		return nil, fmt.Errorf("faultinject: %w", err)
	}
	l := &layout{size: len(stream)}
	end := 0
	for _, c := range info.Chunks {
		end = c.Offset + 4 + c.CompressedBytes + 4
		l.frames = append(l.frames, [2]int{c.Offset, end})
	}
	l.footer = [2]int{end, len(stream)}
	return l, nil
}

// Campaign derives the full deterministic mutation set for one container
// stream: truncations at every frame boundary (plus mid-header,
// mid-frame, and mid-footer cuts), single-byte flips with two masks at
// stratified positions in every region, and 8-byte zeroed runs. The
// input stream must be intact; it is never modified.
func Campaign(stream []byte) ([]Mutant, error) {
	l, err := describe(stream)
	if err != nil {
		return nil, err
	}

	var muts []Mutant
	add := func(m Mutant) {
		m.HeaderIntact = len(m.Data) >= 36 && bytes.Equal(m.Data[:36], stream[:36])
		for i, fr := range l.frames {
			if fr[1] <= len(m.Data) && bytes.Equal(m.Data[fr[0]:fr[1]], stream[fr[0]:fr[1]]) {
				m.IntactChunks = append(m.IntactChunks, i)
			}
			pEnd := fr[1] - 4 // the payload ends where the CRC starts
			if pEnd <= len(m.Data) && bytes.Equal(m.Data[fr[0]+4:pEnd], stream[fr[0]+4:pEnd]) {
				m.PayloadIntact = append(m.PayloadIntact, i)
			}
		}
		muts = append(muts, m)
	}

	// Truncations: every frame boundary, plus cuts inside the header, each
	// frame, and the footer. The empty and one-byte streams ride along as
	// degenerate boundary cases.
	cutSet := map[int]bool{0: true, 1: true, 8: true, 20: true, 35: true}
	for _, fr := range l.frames {
		cutSet[fr[0]] = true           // before the frame
		cutSet[fr[0]+4] = true         // after its length prefix
		cutSet[(fr[0]+fr[1])/2] = true // mid-payload
		cutSet[fr[1]] = true           // after the frame
		cutSet[fr[1]-2] = true         // inside the trailing CRC
	}
	cutSet[(l.footer[0]+l.footer[1])/2] = true
	cutSet[l.size-1] = true
	cuts := make([]int, 0, len(cutSet))
	for c := range cutSet {
		if c >= 0 && c < l.size {
			cuts = append(cuts, c)
		}
	}
	sort.Ints(cuts)
	for _, c := range cuts {
		add(Mutant{
			Name:   fmt.Sprintf("truncate@%d", c),
			Region: "cut",
			Data:   bytes.Clone(stream[:c]),
		})
	}

	// Single-byte flips, two masks each: a low bit (subtle value damage)
	// and the high bit (structural damage to lengths and offsets).
	type pos struct {
		off    int
		region string
	}
	var flips []pos
	for _, o := range []int{1, 9, 33} { // magic, volDims, nchunks
		flips = append(flips, pos{o, "header"})
	}
	for _, fr := range l.frames {
		flips = append(flips, pos{fr[0], "frame"})     // length prefix
		flips = append(flips, pos{fr[0] + 4, "frame"}) // first payload byte
		flips = append(flips, pos{(fr[0] + fr[1]) / 2, "frame"})
		flips = append(flips, pos{fr[1] - 5, "frame"}) // last payload byte
		flips = append(flips, pos{fr[1] - 3, "frame"}) // inside the CRC
	}
	fo := l.footer[0]
	flips = append(flips, pos{fo, "footer"})                     // first index entry
	flips = append(flips, pos{(fo + l.footer[1]) / 2, "footer"}) // aggregates region
	flips = append(flips, pos{l.size - 20, "footer"})            // tail CRC
	flips = append(flips, pos{l.size - 16, "footer"})            // tail indexOffset
	flips = append(flips, pos{l.size - 4, "footer"})             // tail magic
	for _, p := range flips {
		for _, mask := range []byte{0x01, 0x80} {
			data := bytes.Clone(stream)
			data[p.off] ^= mask
			add(Mutant{
				Name:   fmt.Sprintf("flip@%d&%02x", p.off, mask),
				Region: p.region,
				Data:   data,
			})
		}
	}

	// Two-site mutants: a mid-payload flip in an interior frame while the
	// index body is damaged too (its first entry, or the aggregates
	// region) and the tail stays intact. The footer is then unusable, so
	// salvage must place the frames after the lost one by position, not
	// by sample count.
	for i := 1; i+1 < len(l.frames); i++ {
		mid := (l.frames[i][0] + l.frames[i][1]) / 2
		for _, fo := range []int{l.footer[0], (l.footer[0] + l.footer[1]) / 2} {
			data := bytes.Clone(stream)
			data[mid] ^= 0x01
			data[fo] ^= 0x80
			add(Mutant{
				Name:   fmt.Sprintf("flip@%d&01+flip@%d&80", mid, fo),
				Region: "frame+footer",
				Data:   data,
			})
		}
	}

	// Two-site mutants that lose the tail instead: the same payload flip
	// plus a flip of the tail's index offset or of its magic. Neither the
	// index nor its anchor is left, so only the lost frame's surviving
	// length prefix can place the frames after it.
	for i := 1; i+1 < len(l.frames); i++ {
		mid := (l.frames[i][0] + l.frames[i][1]) / 2
		for _, to := range []int{l.size - 16, l.size - 4} {
			data := bytes.Clone(stream)
			data[mid] ^= 0x01
			data[to] ^= 0x80
			add(Mutant{
				Name:   fmt.Sprintf("flip@%d&01+flip@%d&80", mid, to),
				Region: "frame+footer",
				Data:   data,
			})
		}
	}

	// Zeroed runs: 8 bytes wiped — the shape of a lost sector edge or a
	// partially written page.
	type run struct {
		off    int
		region string
	}
	var runs []run
	runs = append(runs, run{28, "header"}) // chunkDims.NZ + nchunks
	for _, fr := range l.frames {
		runs = append(runs, run{(fr[0] + fr[1]) / 2, "frame"})
	}
	runs = append(runs, run{l.footer[0], "footer"})
	runs = append(runs, run{l.size - 20, "footer"})
	for _, r := range runs {
		n := 8
		if r.off+n > l.size {
			n = l.size - r.off
		}
		data := bytes.Clone(stream)
		for i := 0; i < n; i++ {
			data[r.off+i] = 0
		}
		add(Mutant{
			Name:   fmt.Sprintf("zero@%d+%d", r.off, n),
			Region: r.region,
			Data:   data,
		})
	}

	return muts, nil
}
