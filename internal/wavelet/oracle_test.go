package wavelet

// The scalar reference path: the textbook in-place lifting of one line
// (forwardEven/forwardOdd and their inverses), Forward1D/Inverse1D that
// wrap it with the subband (de)interleave, and the pre-fusion per-line
// gather/scatter passes built on them, kept as the bit-exactness oracle
// for the fused kernels. It shares the lifting constants and the level
// schedule with production and nothing else.

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

// forwardEven runs the in-place CDF 9/7 analysis lifting on an even-length
// signal with symmetric extension. Afterwards even indices hold scaled
// low-pass samples and odd indices hold high-pass samples.
func forwardEven(s []float64) {
	n := len(s)
	for i := 1; i < n-2; i += 2 {
		s[i] += alpha * (s[i-1] + s[i+1])
	}
	s[n-1] += 2 * alpha * s[n-2]

	s[0] += 2 * beta * s[1]
	for i := 2; i < n; i += 2 {
		s[i] += beta * (s[i+1] + s[i-1])
	}

	for i := 1; i < n-2; i += 2 {
		s[i] += gamma * (s[i-1] + s[i+1])
	}
	s[n-1] += 2 * gamma * s[n-2]

	s[0] = epsilon * (s[0] + 2*delta*s[1])
	for i := 2; i < n; i += 2 {
		s[i] = epsilon * (s[i] + delta*(s[i+1]+s[i-1]))
	}

	for i := 1; i < n; i += 2 {
		s[i] /= -epsilon
	}
}

// inverseEven inverts forwardEven.
func inverseEven(s []float64) {
	n := len(s)
	for i := 1; i < n; i += 2 {
		s[i] *= -epsilon
	}

	s[0] = s[0]/epsilon - 2*delta*s[1]
	for i := 2; i < n; i += 2 {
		s[i] = s[i]/epsilon - delta*(s[i+1]+s[i-1])
	}

	for i := 1; i < n-2; i += 2 {
		s[i] -= gamma * (s[i-1] + s[i+1])
	}
	s[n-1] -= 2 * gamma * s[n-2]

	s[0] -= 2 * beta * s[1]
	for i := 2; i < n; i += 2 {
		s[i] -= beta * (s[i+1] + s[i-1])
	}

	for i := 1; i < n-2; i += 2 {
		s[i] -= alpha * (s[i-1] + s[i+1])
	}
	s[n-1] -= 2 * alpha * s[n-2]
}

// forwardOdd runs the analysis lifting on an odd-length signal. Both
// endpoints are even (low-pass) samples under whole-sample symmetry.
func forwardOdd(s []float64) {
	n := len(s)
	for i := 1; i < n-1; i += 2 {
		s[i] += alpha * (s[i-1] + s[i+1])
	}

	s[0] += 2 * beta * s[1]
	for i := 2; i < n-2; i += 2 {
		s[i] += beta * (s[i+1] + s[i-1])
	}
	s[n-1] += 2 * beta * s[n-2]

	for i := 1; i < n-1; i += 2 {
		s[i] += gamma * (s[i-1] + s[i+1])
	}

	s[0] = epsilon * (s[0] + 2*delta*s[1])
	for i := 2; i < n-2; i += 2 {
		s[i] = epsilon * (s[i] + delta*(s[i+1]+s[i-1]))
	}
	s[n-1] = epsilon * (s[n-1] + 2*delta*s[n-2])

	for i := 1; i < n-1; i += 2 {
		s[i] /= -epsilon
	}
}

// inverseOdd inverts forwardOdd.
func inverseOdd(s []float64) {
	n := len(s)
	for i := 1; i < n-1; i += 2 {
		s[i] *= -epsilon
	}

	s[0] = s[0]/epsilon - 2*delta*s[1]
	for i := 2; i < n-2; i += 2 {
		s[i] = s[i]/epsilon - delta*(s[i+1]+s[i-1])
	}
	s[n-1] = s[n-1]/epsilon - 2*delta*s[n-2]

	for i := 1; i < n-1; i += 2 {
		s[i] -= gamma * (s[i-1] + s[i+1])
	}

	s[0] -= 2 * beta * s[1]
	for i := 2; i < n-2; i += 2 {
		s[i] -= beta * (s[i+1] + s[i-1])
	}
	s[n-1] -= 2 * beta * s[n-2]

	for i := 1; i < n-1; i += 2 {
		s[i] -= alpha * (s[i-1] + s[i+1])
	}
}

// Forward1D applies one level of the CDF 9/7 analysis transform to s in
// place and deinterleaves the result: the first ceil(n/2) entries are
// low-pass (approximation) coefficients, the rest high-pass (detail).
// scratch must have capacity >= len(s); pass nil to allocate internally.
// Signals shorter than 4 samples are left untouched.
func Forward1D(s, scratch []float64) {
	n := len(s)
	if n < 4 {
		return
	}
	if n%2 == 0 {
		forwardEven(s)
	} else {
		forwardOdd(s)
	}
	deinterleave(s, scratch)
}

// Inverse1D inverts one level of Forward1D: it interleaves the subbands and
// runs the synthesis lifting.
func Inverse1D(s, scratch []float64) {
	n := len(s)
	if n < 4 {
		return
	}
	interleave(s, scratch)
	if n%2 == 0 {
		inverseEven(s)
	} else {
		inverseOdd(s)
	}
}

// deinterleave gathers even-index samples to the front and odd-index
// samples to the back of s.
func deinterleave(s, scratch []float64) {
	n := len(s)
	if scratch == nil || cap(scratch) < n {
		scratch = make([]float64, n)
	}
	scratch = scratch[:n]
	low := (n + 1) / 2
	for i := 0; i < low; i++ {
		scratch[i] = s[2*i]
	}
	for i := 0; i < n/2; i++ {
		scratch[low+i] = s[2*i+1]
	}
	copy(s, scratch)
}

// interleave inverts deinterleave.
func interleave(s, scratch []float64) {
	n := len(s)
	if scratch == nil || cap(scratch) < n {
		scratch = make([]float64, n)
	}
	scratch = scratch[:n]
	low := (n + 1) / 2
	for i := 0; i < low; i++ {
		scratch[2*i] = s[i]
	}
	for i := 0; i < n/2; i++ {
		scratch[2*i+1] = s[low+i]
	}
	copy(s, scratch)
}
