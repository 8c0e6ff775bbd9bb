//go:build !amd64

package wavelet

// No vector row kernels off amd64: the tile kernels run their Go loops.
const haveLanes = false

func forwardTileLanes(st *lift, x, lo, hi *float64, stride, hstride, rows, n int) {
	panic("wavelet: vector lanes called without haveLanes")
}

func inverseTileLanes(st *lift, lo, hi, x *float64, lstride, stride, rows, n int) {
	panic("wavelet: vector lanes called without haveLanes")
}

func forwardLineLanes(st *lift, x *float64, ls int, hi *float64, nh, rows int) {
	panic("wavelet: vector lanes called without haveLanes")
}

func inverseLineLanes(st *lift, x *float64, ls int, lo *float64, nl, rows int) {
	panic("wavelet: vector lanes called without haveLanes")
}
