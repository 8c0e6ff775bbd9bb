package wavelet

// The scalar reference path: the pre-fusion per-line gather/scatter passes
// built on Forward1D/Inverse1D only, kept as the bit-exactness oracle for
// the fused kernels. It shares the level schedule with production and
// nothing else.

// forwardScalarRef applies the analysis transform one gathered line at a
// time.
func (p *Plan) forwardScalarRef(data []float64) {
	for _, st := range p.steps {
		if st.ax {
			p.passXScalar(data, st, Forward1D)
		}
		if st.ay {
			p.passYScalar(data, st, Forward1D)
		}
		if st.az {
			p.passZScalar(data, st, Forward1D)
		}
	}
}

// inverseToLevelScalarRef inverts forwardScalarRef down to level drop.
func (p *Plan) inverseToLevelScalarRef(data []float64, drop int) {
	for i := len(p.steps) - 1; i >= drop; i-- {
		st := p.steps[i]
		if st.az {
			p.passZScalar(data, st, Inverse1D)
		}
		if st.ay {
			p.passYScalar(data, st, Inverse1D)
		}
		if st.ax {
			p.passXScalar(data, st, Inverse1D)
		}
	}
}

// lineScalar transforms the n samples data[off], data[off+stride], ...
func lineScalar(data []float64, off, stride, n int, kernel func(s, scratch []float64)) {
	s := make([]float64, n)
	for i := range s {
		s[i] = data[off+i*stride]
	}
	kernel(s, nil)
	for i := range s {
		data[off+i*stride] = s[i]
	}
}

func (p *Plan) passXScalar(data []float64, st step, kernel func(s, scratch []float64)) {
	for z := 0; z < st.nz; z++ {
		for y := 0; y < st.ny; y++ {
			lineScalar(data, (z*p.dims.NY+y)*p.dims.NX, 1, st.nx, kernel)
		}
	}
}

func (p *Plan) passYScalar(data []float64, st step, kernel func(s, scratch []float64)) {
	for z := 0; z < st.nz; z++ {
		for x := 0; x < st.nx; x++ {
			lineScalar(data, z*p.dims.NY*p.dims.NX+x, p.dims.NX, st.ny, kernel)
		}
	}
}

func (p *Plan) passZScalar(data []float64, st step, kernel func(s, scratch []float64)) {
	for y := 0; y < st.ny; y++ {
		for x := 0; x < st.nx; x++ {
			lineScalar(data, y*p.dims.NX+x, p.dims.NY*p.dims.NX, st.nz, kernel)
		}
	}
}
