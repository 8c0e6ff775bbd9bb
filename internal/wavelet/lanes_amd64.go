package wavelet

// The vector kernels of lanes_amd64.s and the CPU check that selects them;
// fused.go's header says what they run and why their results are the Go
// kernels' bits.

// liftConsts holds the lifting constants the vector kernels broadcast, at
// the offsets lanes_amd64.s names: α, β, γ, δ, ε, -ε.
var liftConsts = [6]float64{alpha, beta, gamma, delta, epsilon, -epsilon}

// haveLanes reports whether this CPU runs the vector kernels: it has AVX
// (lanes_amd64.s uses no AVX2 instruction; TestLanesAVXOnly keeps it so),
// and the operating system saves the YMM registers across context switches
// (OSXSAVE set, XCR0 enabling SSE and AVX state).
var haveLanes = detectLanes()

func detectLanes() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

// cpuid executes CPUID with EAX = eaxArg and ECX = ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

// forwardTileLanes runs forwardTile's steady-state rows k = 2 ... rows+1 on
// columns [0, n), n a positive multiple of 4: forwardRow's loop body, four
// columns at a time. x is row 4 (x0 of k = 2), lo row 1, hi high row 1;
// rows advance by stride samples, highs by hstride.
//
//go:noescape
func forwardTileLanes(st *lift, x, lo, hi *float64, stride, hstride, rows, n int)

// inverseTileLanes runs inverseTile's steady-state rows k = 2 ... rows+1 on
// columns [0, n) as forwardTileLanes does. lo is low row 2, hi high row 2
// (data row nl+2), x row 0 (x0 of k = 2); lows advance by lstride samples,
// rows by stride.
//
//go:noescape
func inverseTileLanes(st *lift, lo, hi, x *float64, lstride, stride, rows, n int)

// forwardLineLanes runs forwardLine's steady-state iterations k = 2 ...
// rows+1 on the four lines x[j*ls:], j < 4, one line per lane. The state
// enters and leaves in columns 0-3 of st; line j's highs go to
// hi[j*nh+k-1].
//
//go:noescape
func forwardLineLanes(st *lift, x *float64, ls int, hi *float64, nh, rows int)

// inverseLineLanes runs inverseLine's steady-state iterations k = 2 ...
// rows+1 on four lines as forwardLineLanes does; line j's lows are
// lo[j*nl:][:nl].
//
//go:noescape
func inverseLineLanes(st *lift, x *float64, ls int, lo *float64, nl, rows int)
