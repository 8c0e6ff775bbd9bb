package wavelet

// Single-sweep fused lifting kernels. One level of the CDF 9/7 transform
// is four lifting stages plus the ±epsilon scaling; the test oracle's
// forwardEven/forwardOdd (oracle_test.go) run them as five sweeps over the
// line. Here they are
// software-pipelined into one: pair k is the samples (2k, 2k+1), and each
// stage of pair k needs only its neighbours' previous-stage values, so one
// iteration per pair carries three values of state and touches every
// sample once.
//
//	forward, iteration k            state entering k      leaves
//	  d1[k]   = x[2k+1] + α(x[2k] + x[2k+2])
//	  s1[k]   = x[2k]   + β(d1[k] + d1[k-1])        d1[k-1]       d1[k]
//	  d2[k-1] = d1[k-1] + γ(s1[k-1] + s1[k])        s1[k-1]       s1[k]
//	  low[k-1]  = ε(s1[k-1] + δ(d2[k-1] + d2[k-2])) d2[k-2]       d2[k-1]
//	  high[k-1] = d2[k-1] / -ε
//
//	inverse, iteration k
//	  d2[k]   = high[k] · -ε
//	  s1[k]   = low[k]/ε - δ(d2[k] + d2[k-1])       d2[k-1]       d2[k]
//	  d1[k-1] = d2[k-1] - γ(s1[k-1] + s1[k])        s1[k-1]       s1[k]
//	  x[2k-2] = s1[k-1] - β(d1[k-1] + d1[k-2])      d1[k-2]       d1[k-1]
//	  x[2k-3] = d1[k-2] - α(x[2k-4] + x[2k-2])
//
// Both run in place. Forward writes low[k-1] at index k-1, below every
// sample still to be read (2k+2 and up); high[k-1] belongs at nl+k-1, which
// is still unread input until k > nl-3, so highs go to a side buffer copied
// back once. Inverse writes x[2k-3], x[2k-2]: below high[k] at nl+k, but on
// top of lows not yet read once k >= 3, so the low half is copied aside
// first. Symmetric extension turns the first and last pairs' missing
// neighbour into 2·c·x, peeled out of the loops.
//
// Every expression has the operands, order and shape of the one in the
// oracle that it replaces (2*c*x is not rewritten c*(x+x), which differs at
// overflow; the division stays a division, x/ε ≠ x·(1/ε) in the last bit),
// so results are bit-identical to Forward1D/Inverse1D — also where the
// compiler contracts x*y+z into a fused multiply-add, because a product
// feeds an addition here only where it does there. The one product that
// would newly meet an addition, high·-ε, is rounded by an explicit
// conversion. Lengths are >= 8 (see NewPlan), so prologue, loop and
// epilogue never overlap.
//
// Vector lanes. Every kernel advances independent lines through the same
// operation sequence, so on amd64 CPUs with AVX (haveLanes, detected once
// at init) the steady-state loops run four lines per 256-bit vector in
// lanes_amd64.s: the tile kernels' 4-aligned column prefix (forwardTileLanes,
// inverseTileLanes; the Go rows forwardRow/inverseRow take the w mod 4
// tail) and the X pass four lines at a time (forwardLines/inverseLines:
// heads and tails in Go, the loop in forwardLineLanes/inverseLineLanes,
// which gather four lines' samples into lanes and scatter the results
// back). The vector code uses VADDPD/VSUBPD/VMULPD/VDIVPD only, with the
// operands of the Go expressions in the same order, so each lane rounds
// exactly as the scalar code does and the bits match. The Go loops are the
// whole kernel on every other GOARCH and CPU, and the lanes' oracle in
// tests.

// panelW is the tile width of the strided passes: the number of x-adjacent
// lines lifted together, so every row access is a contiguous run of up to
// 16 float64 = two cache lines.
const panelW = 16

// forwardLine applies one analysis level to the contiguous line s and
// leaves it in subband order; side holds len(s)/2 highs meanwhile.
func forwardLine(s, side []float64) {
	n := len(s)
	nl, nh := (n+1)/2, n/2
	hi := side[:nh]
	d1, s1, d2 := forwardHead(s, hi)
	x0 := s[4]
	for k := 2; k < nl-1; k++ {
		x1, x2 := s[2*k+1], s[2*k+2]
		a := x1 + alpha*(x0+x2)
		b := x0 + beta*(a+d1)
		c := d1 + gamma*(s1+b)
		s[k-1] = epsilon * (s1 + delta*(c+d2))
		hi[k-1] = c / -epsilon
		d1, s1, d2, x0 = a, b, c, x2
	}
	forwardTail(s, hi, d1, s1, d2)
	copy(s[nl:], hi)
}

// forwardHead runs forwardLine's prologue, iterations 0 and 1: it writes
// low 0 and high 0 and returns the state entering iteration 2.
func forwardHead(s, hi []float64) (d1, s1, d2 float64) {
	p := s[1] + alpha*(s[0]+s[2])
	q := s[0] + 2*beta*p
	a := s[3] + alpha*(s[2]+s[4])
	b := s[2] + beta*(a+p)
	c := p + gamma*(q+b)
	s[0] = epsilon * (q + 2*delta*c)
	hi[0] = c / -epsilon
	return a, b, c
}

// forwardTail runs forwardLine's epilogue from the state entering
// iteration nl-1, whose x[2k] is still in place.
func forwardTail(s, hi []float64, d1, s1, d2 float64) {
	n := len(s)
	nl, nh := (n+1)/2, n/2
	x0 := s[2*nl-2]
	if n%2 == 0 {
		a := s[n-1] + 2*alpha*x0
		b := x0 + beta*(a+d1)
		c := d1 + gamma*(s1+b)
		e := a + 2*gamma*b
		s[nh-2] = epsilon * (s1 + delta*(c+d2))
		hi[nh-2] = c / -epsilon
		s[nh-1] = epsilon * (b + delta*(e+c))
		hi[nh-1] = e / -epsilon
	} else {
		b := x0 + 2*beta*d1
		c := d1 + gamma*(s1+b)
		s[nh-1] = epsilon * (s1 + delta*(c+d2))
		hi[nh-1] = c / -epsilon
		s[nh] = epsilon * (b + 2*delta*c)
	}
}

// inverseLine inverts forwardLine; side holds the (len(s)+1)/2 lows.
func inverseLine(s, side []float64) {
	n := len(s)
	nl, nh := (n+1)/2, n/2
	lo, hi := side[:nl], s[nl:]
	copy(lo, s)
	d2, s1, d1 := inverseHead(s, lo)
	x0 := s[0]
	for k := 2; k < nh; k++ {
		a := float64(hi[k] * -epsilon)
		b := lo[k]/epsilon - delta*(a+d2)
		c := d2 - gamma*(s1+b)
		x2 := s1 - beta*(c+d1)
		s[2*k-3] = d1 - alpha*(x0+x2)
		s[2*k-2] = x2
		d2, s1, d1, x0 = a, b, c, x2
	}
	inverseTail(s, lo, d2, s1, d1)
}

// inverseHead runs inverseLine's prologue, iterations 0 and 1, with the
// lows set aside in lo: it writes x[0] and returns the state entering
// iteration 2.
func inverseHead(s, lo []float64) (d2, s1, d1 float64) {
	hi := s[(len(s)+1)/2:]
	p := float64(hi[0] * -epsilon)
	q := lo[0]/epsilon - 2*delta*p
	a := float64(hi[1] * -epsilon)
	b := lo[1]/epsilon - delta*(a+p)
	c := p - gamma*(q+b)
	s[0] = q - 2*beta*c
	return a, b, c
}

// inverseTail runs inverseLine's epilogue from the state entering
// iteration nh, with x[2k-4] written.
func inverseTail(s, lo []float64, d2, s1, d1 float64) {
	n := len(s)
	nh := n / 2
	x0 := s[2*nh-4]
	if n%2 == 0 {
		c := d2 - 2*gamma*s1
		x2 := s1 - beta*(c+d1)
		s[n-3] = d1 - alpha*(x0+x2)
		s[n-2] = x2
		s[n-1] = c - 2*alpha*x2
	} else {
		b := lo[nh]/epsilon - 2*delta*d2
		c := d2 - gamma*(s1+b)
		x2 := s1 - beta*(c+d1)
		x4 := b - 2*beta*c
		s[n-4] = d1 - alpha*(x0+x2)
		s[n-3] = x2
		s[n-2] = c - alpha*(x2+x4)
		s[n-1] = x4
	}
}

// forwardLines applies forwardLine to the four lines data[off+j*ls:][:n],
// j < 4, one line per vector lane: heads and tails run line by line, the
// steady state in forwardLineLanes. side holds the highs, nh per line.
func forwardLines(data []float64, off, ls, n int, st *lift, side []float64) {
	nl, nh := (n+1)/2, n/2
	for j := 0; j < 4; j++ {
		st.d[j], st.s[j], st.e[j] = forwardHead(data[off+j*ls:][:n], side[j*nh:][:nh])
	}
	forwardLineLanes(st, &data[off], ls, &side[0], nh, nl-3)
	for j := 0; j < 4; j++ {
		s, hi := data[off+j*ls:][:n], side[j*nh:][:nh]
		forwardTail(s, hi, st.d[j], st.s[j], st.e[j])
		copy(s[nl:], hi)
	}
}

// inverseLines inverts forwardLines; side holds the lows, nl per line.
func inverseLines(data []float64, off, ls, n int, st *lift, side []float64) {
	nl, nh := (n+1)/2, n/2
	for j := 0; j < 4; j++ {
		s, lo := data[off+j*ls:][:n], side[j*nl:][:nl]
		copy(lo, s)
		st.d[j], st.s[j], st.e[j] = inverseHead(s, lo)
	}
	inverseLineLanes(st, &data[off], ls, &side[0], nl, nh-2)
	for j := 0; j < 4; j++ {
		inverseTail(data[off+j*ls:][:n], side[j*nl:][:nl], st.d[j], st.s[j], st.e[j])
	}
}

// lift is a tile kernel's pipeline state between iterations: one row per
// value, in the order of the tables above — forward {d1[k-1], s1[k-1],
// d2[k-2]}, inverse {d2[k-1], s1[k-1], d1[k-2]} — and one column per line,
// so the state of four adjacent lines is one vector load. The four-line X
// kernels pass their state between Go and the lanes in columns 0-3.
type lift struct{ d, s, e [panelW]float64 }

// useLanes selects the vector kernels of lanes_amd64.s: the 4-aligned
// column prefix of every tile and the X pass's four-line groups. It is
// haveLanes, fixed at init; only tests clear it, to run the Go kernels on
// a CPU that has the lanes.
var useLanes = haveLanes

// forwardTile applies one analysis level to w <= panelW adjacent strided
// lines at once: sample i of line t is data[base+i*stride+t]. side holds
// the n/2 high rows meanwhile.
func forwardTile(data []float64, base, stride, n, w int, st *lift, side []float64) {
	nl, nh := (n+1)/2, n/2
	row := func(i int) []float64 { return data[base+i*stride:][:w] }
	high := func(k int) []float64 { return side[k*w:][:w] }

	r0, r1, r2, r3, r4, hi := row(0), row(1), row(2), row(3), row(4), high(0)
	for t := range r0 {
		p := r1[t] + alpha*(r0[t]+r2[t])
		q := r0[t] + 2*beta*p
		a := r3[t] + alpha*(r2[t]+r4[t])
		b := r2[t] + beta*(a+p)
		c := p + gamma*(q+b)
		r0[t] = epsilon * (q + 2*delta*c)
		hi[t] = c / -epsilon
		st.d[t], st.s[t], st.e[t] = a, b, c
	}
	t0 := 0
	if useLanes && w >= 4 {
		t0 = w &^ 3
		_, _ = row(n-1), high(nh-1) // the last row and high the lanes reach
		forwardTileLanes(st, &row(4)[0], &row(1)[0], &high(1)[0], stride, w, nl-3, t0)
	}
	if t0 < w {
		for k := 2; k < nl-1; k++ {
			forwardRow(st, t0, row(2*k), row(2*k+1), row(2*k+2), row(k-1), high(k-1))
		}
	}
	if n%2 == 0 {
		x0, x1, lo, hi, lo2, hi2 := row(n-2), row(n-1), row(nh-2), high(nh-2), row(nh-1), high(nh-1)
		for t := range x0 {
			d, s, e := st.d[t], st.s[t], st.e[t]
			a := x1[t] + 2*alpha*x0[t]
			b := x0[t] + beta*(a+d)
			c := d + gamma*(s+b)
			f := a + 2*gamma*b
			lo[t] = epsilon * (s + delta*(c+e))
			hi[t] = c / -epsilon
			lo2[t] = epsilon * (b + delta*(f+c))
			hi2[t] = f / -epsilon
		}
	} else {
		x0, lo, hi, lo2 := row(n-1), row(nh-1), high(nh-1), row(nh)
		for t := range x0 {
			d, s, e := st.d[t], st.s[t], st.e[t]
			b := x0[t] + 2*beta*d
			c := d + gamma*(s+b)
			lo[t] = epsilon * (s + delta*(c+e))
			hi[t] = c / -epsilon
			lo2[t] = epsilon * (b + 2*delta*c)
		}
	}
	for k := 0; k < nh; k++ {
		copy(row(nl+k), high(k))
	}
}

// forwardRow is forwardTile's steady-state iteration on columns [t, w):
// input rows x0..x2 (2k..2k+2) in, low and high rows k-1 out. It is the
// whole row where the vector lanes are not in use, the columns they leave
// over where they are, and their oracle. A function of its own so that its
// loop's eight pointers and two counters are all the compiler has to keep
// in registers; written inside the tile loop, the counter is spilled and
// reloaded every iteration.
func forwardRow(st *lift, t int, x0, x1, x2, lo, hi []float64) {
	w := len(x0)
	x1, x2, lo, hi = x1[:w], x2[:w], lo[:w], hi[:w]
	d, s, e := st.d[:w], st.s[:w], st.e[:w]
	for ; t < w; t++ {
		a := x1[t] + alpha*(x0[t]+x2[t])
		b := x0[t] + beta*(a+d[t])
		c := d[t] + gamma*(s[t]+b)
		lo[t] = epsilon * (s[t] + delta*(c+e[t]))
		hi[t] = c / -epsilon
		d[t], s[t], e[t] = a, b, c
	}
}

// inverseRow is inverseTile's steady-state iteration on columns [t, w):
// low and high rows k and output row x0 (2k-4) in, output rows o1, o2
// (2k-3, 2k-2) out. It stands to the lanes as forwardRow does.
func inverseRow(st *lift, t int, lo, hi, x0, o1, o2 []float64) {
	w := len(lo)
	hi, x0, o1, o2 = hi[:w], x0[:w], o1[:w], o2[:w]
	d, s, e := st.d[:w], st.s[:w], st.e[:w]
	for ; t < w; t++ {
		a := float64(hi[t] * -epsilon)
		b := lo[t]/epsilon - delta*(a+d[t])
		c := d[t] - gamma*(s[t]+b)
		x2 := s[t] - beta*(c+e[t])
		o1[t] = e[t] - alpha*(x0[t]+x2)
		o2[t] = x2
		d[t], s[t], e[t] = a, b, c
	}
}

// inverseTile inverts forwardTile; side holds the (n+1)/2 low rows.
func inverseTile(data []float64, base, stride, n, w int, st *lift, side []float64) {
	nl, nh := (n+1)/2, n/2
	row := func(i int) []float64 { return data[base+i*stride:][:w] }
	low := func(k int) []float64 { return side[k*w:][:w] }
	for k := 0; k < nl; k++ {
		copy(low(k), row(k))
	}

	l0, l1, h0, h1, out := low(0), low(1), row(nl), row(nl+1), row(0)
	for t := range out {
		p := float64(h0[t] * -epsilon)
		q := l0[t]/epsilon - 2*delta*p
		a := float64(h1[t] * -epsilon)
		b := l1[t]/epsilon - delta*(a+p)
		c := p - gamma*(q+b)
		out[t] = q - 2*beta*c
		st.d[t], st.s[t], st.e[t] = a, b, c
	}
	t0 := 0
	if useLanes && w >= 4 {
		t0 = w &^ 3
		_ = row(n - 1) // the last row the lanes reach
		inverseTileLanes(st, &low(2)[0], &row(nl + 2)[0], &row(0)[0], w, stride, nh-2, t0)
	}
	if t0 < w {
		for k := 2; k < nh; k++ {
			inverseRow(st, t0, low(k), row(nl+k), row(2*k-4), row(2*k-3), row(2*k-2))
		}
	}
	if n%2 == 0 {
		x0, o1, o2, o3 := row(n-4), row(n-3), row(n-2), row(n-1)
		for t := range x0 {
			d, s, e := st.d[t], st.s[t], st.e[t]
			c := d - 2*gamma*s
			x2 := s - beta*(c+e)
			o1[t] = e - alpha*(x0[t]+x2)
			o2[t] = x2
			o3[t] = c - 2*alpha*x2
		}
	} else {
		lo, x0, o1, o2, o3, o4 := low(nh), row(n-5), row(n-4), row(n-3), row(n-2), row(n-1)
		for t := range x0 {
			d, s, e := st.d[t], st.s[t], st.e[t]
			b := lo[t]/epsilon - 2*delta*d
			c := d - gamma*(s+b)
			x2 := s - beta*(c+e)
			x4 := b - 2*beta*c
			o1[t] = e - alpha*(x0[t]+x2)
			o2[t] = x2
			o3[t] = c - alpha*(x2+x4)
			o4[t] = x4
		}
	}
}
