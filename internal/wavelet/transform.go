package wavelet

import (
	"math"

	"sperr/internal/grid"
	"sperr/internal/par"
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
// demand and is retained across calls. A Scratch is not safe for concurrent use —
// give each worker its own; the threaded transform entry points draw
// per-goroutine sub-scratches from the same arena. Plans stay immutable
// and shareable.
type Scratch struct {
	state [panelW]lift
	side  []float64
	subs  []*Scratch // lazily grown per-extra-goroutine arenas
	ws    []*Scratch // pooled worker-set slice handed to the passes
	// Grows counts how many times this scratch's buffers had to be
	// (re)allocated; a warmed-up steady state stops growing. Sub-scratch
	// growth is reported by TotalGrows.
	Grows int
}

// sideRows returns the side buffer for lines of up to n samples: the half
// of a tile (or, at its front, of one contiguous X line) that a kernel
// must set aside.
func (s *Scratch) sideRows(n int) []float64 {
	need := (n + 1) / 2 * panelW
	if cap(s.side) < need {
		s.side = make([]float64, need)
		s.Grows++
	}
	return s.side[:need]
}

// workerSet returns [threads] scratches with s itself as worker 0,
// growing (and retaining) sub-scratches as needed. Called before
// goroutines spawn, so all arena mutation happens on the caller.
func (s *Scratch) workerSet(threads int) []*Scratch {
	if threads < 1 {
		threads = 1
	}
	if cap(s.ws) < threads {
		s.ws = make([]*Scratch, 0, threads)
		s.Grows++
	}
	ws := s.ws[:0]
	ws = append(ws, s)
	for len(ws) < threads {
		if len(ws)-1 >= len(s.subs) {
			s.subs = append(s.subs, &Scratch{})
			s.Grows++
		}
		ws = append(ws, s.subs[len(ws)-1])
	}
	s.ws = ws
	return ws
}

// TotalGrows reports Grows summed over this scratch and every
// sub-scratch the threaded passes have drawn from it.
func (s *Scratch) TotalGrows() int {
	g := s.Grows
	for _, sub := range s.subs {
		g += sub.Grows
	}
	return g
}

// parallelMinElems is the approximation-box volume below which a pass
// stays serial: the goroutine spawn + barrier cost must stay negligible
// against the pass work, and deep (small) levels run serial either way.
const parallelMinElems = 1 << 15

// spanWorkers decides how many goroutines a pass over elems elements
// uses. The split never changes results — lines are independent — only
// which goroutine computes them.
func spanWorkers(threads, elems int) int {
	return par.Workers(threads, elems, parallelMinElems)
}

// Forward applies the full multi-level analysis transform to data in place.
// data is row-major with extent p.Dims().
func (p *Plan) Forward(data []float64) {
	p.ForwardScratch(data, nil)
}

// ForwardScratch is Forward with caller-provided scratch space; s may be
// nil, which allocates temporaries for this call only.
func (p *Plan) ForwardScratch(data []float64, s *Scratch) {
	p.ForwardScratchThreads(data, s, 1)
}

// ForwardScratchThreads is ForwardScratch with each pass split over up to
// threads goroutines (intra-chunk parallelism; threads <= 1 is serial).
// Lines within a pass are independent, so the output is bit-identical at
// every thread count.
func (p *Plan) ForwardScratchThreads(data []float64, s *Scratch, threads int) {
	if s == nil {
		s = &Scratch{}
	}
	ws := s.workerSet(threads)
	for _, st := range p.steps {
		if st.ax {
			p.passX(data, st, true, ws)
		}
		if st.ay {
			p.passY(data, st, true, ws)
		}
		if st.az {
			p.passZ(data, st, true, ws)
		}
	}
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

// InverseScratchThreads is InverseScratch with threaded passes.
func (p *Plan) InverseScratchThreads(data []float64, s *Scratch, threads int) {
	p.InverseToLevelScratchThreads(data, 0, s, threads)
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
	return p.InverseToLevelScratchThreads(data, drop, s, 1)
}

// InverseToLevelScratchThreads is InverseToLevelScratch with threaded
// passes; output is bit-identical at every thread count.
func (p *Plan) InverseToLevelScratchThreads(data []float64, drop int, s *Scratch, threads int) grid.Dims {
	if drop < 0 {
		drop = 0
	}
	if drop > len(p.steps) {
		drop = len(p.steps)
	}
	if s == nil {
		s = &Scratch{}
	}
	ws := s.workerSet(threads)
	for i := len(p.steps) - 1; i >= drop; i-- {
		st := p.steps[i]
		if st.az {
			p.passZ(data, st, false, ws)
		}
		if st.ay {
			p.passY(data, st, false, ws)
		}
		if st.ax {
			p.passX(data, st, false, ws)
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
// contiguous in memory, so the fused line kernel runs on them in place.
func (p *Plan) passX(data []float64, st step, fwd bool, ws []*Scratch) {
	lines := st.nz * st.ny
	if nw := spanWorkers(len(ws), lines*st.nx); nw > 1 {
		par.Spans(lines, nw, func(w, lo, hi int) { p.spanX(data, st, fwd, ws[w], lo, hi) })
		return
	}
	p.spanX(data, st, fwd, ws[0], 0, lines) // no closure: the serial path allocates nothing
}

// spanX runs the fused line kernel over x-lines [lo, hi).
func (p *Plan) spanX(data []float64, st step, fwd bool, s *Scratch, lo, hi int) {
	side := s.sideRows(maxLine(p.dims))
	for li := lo; li < hi; li++ {
		off := (li/st.ny*p.dims.NY + li%st.ny) * p.dims.NX
		if line := data[off : off+st.nx : off+st.nx]; fwd {
			forwardLine(line, side)
		} else {
			inverseLine(line, side)
		}
	}
}

// passY transforms every y-line of the approximation box and passZ every
// z-line, both in tiles of panelW x-adjacent lines (see spanTiles).
func (p *Plan) passY(data []float64, st step, fwd bool, ws []*Scratch) {
	p.passTiles(data, st, false, fwd, ws)
}

func (p *Plan) passZ(data []float64, st step, fwd bool, ws []*Scratch) {
	p.passTiles(data, st, true, fwd, ws)
}

// passTiles splits the tiles of a strided pass over the workers. Tiles are
// independent, so the split cannot change results.
func (p *Plan) passTiles(data []float64, st step, zAxis, fwd bool, ws []*Scratch) {
	tiles := (st.nx + panelW - 1) / panelW
	if zAxis {
		tiles *= st.ny
	} else {
		tiles *= st.nz
	}
	if nw := spanWorkers(len(ws), st.nx*st.ny*st.nz); nw > 1 {
		par.Spans(tiles, nw, func(w, lo, hi int) { p.spanTiles(data, st, zAxis, fwd, ws[w], lo, hi) })
		return
	}
	p.spanTiles(data, st, zAxis, fwd, ws[0], 0, tiles)
}

// spanTiles runs the fused tile kernel over tiles [lo, hi). A y-pass tile
// is up to panelW x-adjacent lines of one z-plane, samples a row apart; a
// z-pass tile is the same within one y-row, samples a plane apart.
func (p *Plan) spanTiles(data []float64, st step, zAxis, fwd bool, s *Scratch, lo, hi int) {
	plane := p.dims.NY * p.dims.NX
	n, stride, gstride := st.ny, p.dims.NX, plane
	if zAxis {
		n, stride, gstride = st.nz, plane, p.dims.NX
	}
	nblk := (st.nx + panelW - 1) / panelW
	side := s.sideRows(maxLine(p.dims))
	for ti := lo; ti < hi; ti++ {
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
