package wavelet

import (
	"math"

	"sperr/internal/grid"
)

// step is one level of the dyadic decomposition: the extent of the current
// approximation box and which axes are transformed at this level.
type step struct {
	nx, ny, nz int
	ax, ay, az bool
}

// Plan precomputes the level schedule of a multi-dimensional transform for
// a given volume extent, so that forward and inverse transforms replay the
// identical sequence of 1D passes. Plans are immutable and safe for
// concurrent use; per-call scratch space is allocated by the worker.
type Plan struct {
	dims  grid.Dims
	steps []step
}

// NewPlan builds the transform schedule for dims. Axes of different length
// receive different numbers of passes: an axis is active at level i while
// i < Levels(axis length). Since Levels(N) = floor(log2 N) - 2, an active
// axis has N >= 2^(i+3), and i ceil-halvings leave its current length at
// least 8: every scheduled pass transforms lines of 8 or more samples,
// which is the only case the fused kernels handle.
func NewPlan(dims grid.Dims) *Plan {
	lx, ly, lz := Levels(dims.NX), Levels(dims.NY), Levels(dims.NZ)
	total := lx
	if ly > total {
		total = ly
	}
	if lz > total {
		total = lz
	}
	p := &Plan{dims: dims}
	cx, cy, cz := dims.NX, dims.NY, dims.NZ
	for i := 0; i < total; i++ {
		st := step{nx: cx, ny: cy, nz: cz, ax: i < lx, ay: i < ly, az: i < lz}
		p.steps = append(p.steps, st)
		if st.ax {
			cx = (cx + 1) / 2
		}
		if st.ay {
			cy = (cy + 1) / 2
		}
		if st.az {
			cz = (cz + 1) / 2
		}
	}
	return p
}

// Dims returns the extent the plan was built for.
func (p *Plan) Dims() grid.Dims { return p.dims }

// NumLevels returns the total number of decomposition levels.
func (p *Plan) NumLevels() int { return len(p.steps) }

// Scratch holds the per-call temporaries of a multi-dimensional transform
// — the fused kernels' pipeline state and half-line side buffer — so
// repeated transforms (one per chunk in the parallel pipeline) reuse them
// instead of allocating. The zero value is ready; the buffer grows on
// demand and is retained across calls. A Scratch is not safe for
// concurrent use — give each worker its own. Plans stay immutable and
// shareable.
type Scratch struct {
	state lift
	side  []float64
	// Grows counts how many times this scratch's buffers had to be
	// (re)allocated; a warmed-up steady state stops growing.
	Grows int
}

// sideRows returns the side buffer for lines of up to n samples: the half
// of a tile (or, at its front, of one or four contiguous X lines) that a
// kernel must set aside.
func (s *Scratch) sideRows(n int) []float64 {
	need := (n + 1) / 2 * panelW
	if cap(s.side) < need {
		s.side = make([]float64, need)
		s.Grows++
	}
	return s.side[:need]
}

// Forward applies the full multi-level analysis transform to data in place.
// data is row-major with extent p.Dims().
func (p *Plan) Forward(data []float64) {
	p.ForwardScratch(data, nil)
}

// ForwardScratch is Forward with caller-provided scratch space; s may be
// nil, which allocates temporaries for this call only.
func (p *Plan) ForwardScratch(data []float64, s *Scratch) {
	if s == nil {
		s = &Scratch{}
	}
	for _, st := range p.steps {
		if st.ax {
			p.passX(data, st, true, s)
		}
		if st.ay {
			p.passTiles(data, st, false, true, s)
		}
		if st.az {
			p.passTiles(data, st, true, true, s)
		}
	}
}

// ForwardScratchThreads is ForwardScratch; threads is ignored. It remains
// only because bench/trace.go calls it by name, and goes when ROADMAP
// item 1 rewrites that caller. Production code calls ForwardScratch.
func (p *Plan) ForwardScratchThreads(data []float64, s *Scratch, threads int) {
	p.ForwardScratch(data, s)
}

// Inverse applies the full synthesis transform to data in place, exactly
// undoing Forward.
func (p *Plan) Inverse(data []float64) {
	p.InverseToLevel(data, 0)
}

// InverseScratch is Inverse with caller-provided scratch space.
func (p *Plan) InverseScratch(data []float64, s *Scratch) {
	p.InverseToLevelScratch(data, 0, s)
}

// InverseScratchThreads is InverseScratch; threads is ignored. It remains
// only because bench/trace.go calls it by name, and goes when ROADMAP
// item 1 rewrites that caller. Production code calls InverseScratch.
func (p *Plan) InverseScratchThreads(data []float64, s *Scratch, threads int) {
	p.InverseScratch(data, s)
}

// InverseToLevel undoes the transform only down to decomposition level
// drop (0 <= drop <= NumLevels): the finest drop levels stay folded, and
// data afterwards holds the level-drop approximation band in the sub-box
// returned by LevelDims(drop). Wavelet hierarchies represent data as
// self-similar coarsenings, which is what enables the multi-resolution
// reconstruction the paper's Section VII describes; drop = 0 is the full
// inverse. The approximation carries the low-pass DC gain of the skipped
// levels: divide by LevelScale(drop) to bring it to data scale.
func (p *Plan) InverseToLevel(data []float64, drop int) grid.Dims {
	return p.InverseToLevelScratch(data, drop, nil)
}

// InverseToLevelScratch is InverseToLevel with caller-provided scratch
// space; s may be nil.
func (p *Plan) InverseToLevelScratch(data []float64, drop int, s *Scratch) grid.Dims {
	if drop < 0 {
		drop = 0
	}
	if drop > len(p.steps) {
		drop = len(p.steps)
	}
	if s == nil {
		s = &Scratch{}
	}
	for i := len(p.steps) - 1; i >= drop; i-- {
		st := p.steps[i]
		if st.az {
			p.passTiles(data, st, true, false, s)
		}
		if st.ay {
			p.passTiles(data, st, false, false, s)
		}
		if st.ax {
			p.passX(data, st, false, s)
		}
	}
	return p.LevelDims(drop)
}

// LevelDims returns the extent of the approximation band after drop
// decomposition levels: each axis is ceil-halved once per level in which
// it is active.
func (p *Plan) LevelDims(drop int) grid.Dims {
	return grid.Dims{
		NX: CoarseLen(p.dims.NX, drop),
		NY: CoarseLen(p.dims.NY, drop),
		NZ: CoarseLen(p.dims.NZ, drop),
	}
}

// LevelScale returns the low-pass DC gain carried by the level-drop
// approximation band: sqrt(2) per applied transform per axis (the scaled
// CDF 9/7 low-pass filter has unit norm and sqrt(2) DC gain).
func (p *Plan) LevelScale(drop int) float64 {
	count := 0
	for _, n := range []int{p.dims.NX, p.dims.NY, p.dims.NZ} {
		l := Levels(n)
		if drop < l {
			count += drop
		} else {
			count += l
		}
	}
	return math.Pow(math.Sqrt2, float64(count))
}

// CoarseLen returns the length of a length-n axis after drop levels of
// decomposition (ceil-halved once per level the axis is active in).
func CoarseLen(n, drop int) int {
	k := Levels(n)
	if drop < k {
		k = drop
	}
	for i := 0; i < k; i++ {
		n = (n + 1) / 2
	}
	return n
}

func maxLine(d grid.Dims) int {
	n := d.NX
	if d.NY > n {
		n = d.NY
	}
	if d.NZ > n {
		n = d.NZ
	}
	return n
}

// passX transforms every x-line of the approximation box; lines are
// contiguous in memory, so the fused line kernels run on them in place,
// four adjacent lines of a z-plane at a time where the lanes are in use.
func (p *Plan) passX(data []float64, st step, fwd bool, s *Scratch) {
	side := s.sideRows(maxLine(p.dims))
	for z := 0; z < st.nz; z++ {
		y := 0
		for ; useLanes && y+4 <= st.ny; y += 4 {
			if off := (z*p.dims.NY + y) * p.dims.NX; fwd {
				forwardLines(data, off, p.dims.NX, st.nx, &s.state, side)
			} else {
				inverseLines(data, off, p.dims.NX, st.nx, &s.state, side)
			}
		}
		for ; y < st.ny; y++ {
			off := (z*p.dims.NY + y) * p.dims.NX
			if line := data[off : off+st.nx : off+st.nx]; fwd {
				forwardLine(line, side)
			} else {
				inverseLine(line, side)
			}
		}
	}
}

// passTiles transforms every y-line (zAxis false) or z-line (zAxis true)
// of the approximation box in tiles of up to panelW x-adjacent lines: a
// y-pass tile lies in one z-plane, samples a row apart; a z-pass tile
// lies in one y-row, samples a plane apart.
func (p *Plan) passTiles(data []float64, st step, zAxis, fwd bool, s *Scratch) {
	plane := p.dims.NY * p.dims.NX
	n, stride, gstride, groups := st.ny, p.dims.NX, plane, st.nz
	if zAxis {
		n, stride, gstride, groups = st.nz, plane, p.dims.NX, st.ny
	}
	nblk := (st.nx + panelW - 1) / panelW
	side := s.sideRows(maxLine(p.dims))
	for ti := 0; ti < nblk*groups; ti++ {
		x0 := ti % nblk * panelW
		w := st.nx - x0
		if w > panelW {
			w = panelW
		}
		if base := ti/nblk*gstride + x0; fwd {
			forwardTile(data, base, stride, n, w, &s.state, side)
		} else {
			inverseTile(data, base, stride, n, w, &s.state, side)
		}
	}
}
