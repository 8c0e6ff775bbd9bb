#include "go_asm.h"
#include "textflag.h"

// Four columns per iteration: Y registers hold one value of four adjacent
// lines. Each block below is one line of forwardRow/inverseRow in
// fused.go, with its operands in the same order: Go's AVX form
// VOP b, a, dst computes dst = a OP b. Only VADDPD, VSUBPD, VMULPD and
// VDIVPD touch the data, so every lane rounds as the scalar code does.

// func forwardTileLanes(st *lift, x, lo, hi *float64, stride, hstride, rows, n int)
TEXT ·forwardTileLanes(SB), NOSPLIT, $0-64
	MOVQ st+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ lo+16(FP), R10
	MOVQ hi+24(FP), R11
	MOVQ stride+32(FP), R9
	SHLQ $3, R9
	MOVQ hstride+40(FP), R12
	SHLQ $3, R12
	MOVQ rows+48(FP), R13
	MOVQ n+56(FP), CX
	VBROADCASTSD ·liftConsts+0(SB), Y10  // α
	VBROADCASTSD ·liftConsts+8(SB), Y11  // β
	VBROADCASTSD ·liftConsts+16(SB), Y12 // γ
	VBROADCASTSD ·liftConsts+24(SB), Y13 // δ
	VBROADCASTSD ·liftConsts+32(SB), Y14 // ε
	VBROADCASTSD ·liftConsts+40(SB), Y15 // -ε

forwardTileRow:
	LEAQ (SI)(R9*1), BX // x1: row 2k+1
	LEAQ (BX)(R9*1), DX // x2: row 2k+2
	XORQ AX, AX

forwardTileCol:
	VMOVUPD (SI)(AX*8), Y0            // x0
	VMOVUPD (BX)(AX*8), Y1            // x1
	VMOVUPD (DX)(AX*8), Y2            // x2
	VMOVUPD lift_d(DI)(AX*8), Y3      // d
	VMOVUPD lift_s(DI)(AX*8), Y4      // s
	VMOVUPD lift_e(DI)(AX*8), Y5      // e

	// a := x1 + α*(x0+x2)
	VADDPD Y2, Y0, Y6
	VMULPD Y6, Y10, Y6
	VADDPD Y6, Y1, Y6

	// b := x0 + β*(a+d)
	VADDPD Y3, Y6, Y7
	VMULPD Y7, Y11, Y7
	VADDPD Y7, Y0, Y7

	// c := d + γ*(s+b)
	VADDPD Y7, Y4, Y8
	VMULPD Y8, Y12, Y8
	VADDPD Y8, Y3, Y8

	// lo = ε * (s + δ*(c+e))
	VADDPD Y5, Y8, Y9
	VMULPD Y9, Y13, Y9
	VADDPD Y9, Y4, Y9
	VMULPD Y9, Y14, Y9
	VMOVUPD Y9, (R10)(AX*8)

	// hi = c / -ε
	VDIVPD Y15, Y8, Y0
	VMOVUPD Y0, (R11)(AX*8)

	// d, s, e = a, b, c
	VMOVUPD Y6, lift_d(DI)(AX*8)
	VMOVUPD Y7, lift_s(DI)(AX*8)
	VMOVUPD Y8, lift_e(DI)(AX*8)

	ADDQ $4, AX
	CMPQ AX, CX
	JLT  forwardTileCol

	MOVQ DX, SI   // the next row's x0 is this row's x2
	ADDQ R9, R10  // low row k
	ADDQ R12, R11 // high row k
	DECQ R13
	JNZ  forwardTileRow
	VZEROUPPER
	RET

// func inverseTileLanes(st *lift, lo, hi, x *float64, lstride, stride, rows, n int)
TEXT ·inverseTileLanes(SB), NOSPLIT, $0-64
	MOVQ st+0(FP), DI
	MOVQ lo+8(FP), R10
	MOVQ hi+16(FP), R11
	MOVQ x+24(FP), SI
	MOVQ lstride+32(FP), R12
	SHLQ $3, R12
	MOVQ stride+40(FP), R9
	SHLQ $3, R9
	MOVQ rows+48(FP), R13
	MOVQ n+56(FP), CX
	VBROADCASTSD ·liftConsts+0(SB), Y10  // α
	VBROADCASTSD ·liftConsts+8(SB), Y11  // β
	VBROADCASTSD ·liftConsts+16(SB), Y12 // γ
	VBROADCASTSD ·liftConsts+24(SB), Y13 // δ
	VBROADCASTSD ·liftConsts+32(SB), Y14 // ε
	VBROADCASTSD ·liftConsts+40(SB), Y15 // -ε

inverseTileRow:
	LEAQ (SI)(R9*1), BX // o1: row 2k-3
	LEAQ (BX)(R9*1), DX // o2: row 2k-2
	XORQ AX, AX

inverseTileCol:
	VMOVUPD (R10)(AX*8), Y0           // lo
	VMOVUPD (R11)(AX*8), Y1           // hi
	VMOVUPD (SI)(AX*8), Y2            // x0
	VMOVUPD lift_d(DI)(AX*8), Y3      // d
	VMOVUPD lift_s(DI)(AX*8), Y4      // s
	VMOVUPD lift_e(DI)(AX*8), Y5      // e

	// a := hi * -ε
	VMULPD Y15, Y1, Y6

	// b := lo/ε - δ*(a+d)
	VDIVPD Y14, Y0, Y0
	VADDPD Y3, Y6, Y7
	VMULPD Y7, Y13, Y7
	VSUBPD Y7, Y0, Y7

	// c := d - γ*(s+b)
	VADDPD Y7, Y4, Y8
	VMULPD Y8, Y12, Y8
	VSUBPD Y8, Y3, Y8

	// x2 := s - β*(c+e)
	VADDPD Y5, Y8, Y9
	VMULPD Y9, Y11, Y9
	VSUBPD Y9, Y4, Y9

	// o1 = e - α*(x0+x2); o2 = x2
	VADDPD Y9, Y2, Y2
	VMULPD Y2, Y10, Y2
	VSUBPD Y2, Y5, Y2
	VMOVUPD Y2, (BX)(AX*8)
	VMOVUPD Y9, (DX)(AX*8)

	// d, s, e = a, b, c
	VMOVUPD Y6, lift_d(DI)(AX*8)
	VMOVUPD Y7, lift_s(DI)(AX*8)
	VMOVUPD Y8, lift_e(DI)(AX*8)

	ADDQ $4, AX
	CMPQ AX, CX
	JLT  inverseTileCol

	MOVQ DX, SI   // the next row's x0 is this row's o2
	ADDQ R12, R10 // low row k+1
	ADDQ R9, R11  // high row k+1
	DECQ R13
	JNZ  inverseTileRow
	VZEROUPPER
	RET

// Lines: lane j is line j of four at a stride of ls samples, and the
// state stays in registers (d Y4, s Y5, e Y6, x[2k] or x[2k-4] Y0).
// Samples are gathered into lanes and scattered back to their lines
// around the same arithmetic as the tiles'.

// func forwardLineLanes(st *lift, x *float64, ls int, hi *float64, nh, rows int)
TEXT ·forwardLineLanes(SB), NOSPLIT, $0-48
	MOVQ st+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ ls+16(FP), BX
	SHLQ $3, BX
	MOVQ hi+24(FP), R11
	ADDQ $8, R11           // high k-1 of line 0, from k = 2
	MOVQ nh+32(FP), R12
	SHLQ $3, R12
	MOVQ rows+40(FP), R13
	LEAQ 8(SI), CX         // low k-1 of line 0
	ADDQ $32, SI           // x[2k] of line 0
	LEAQ (BX)(BX*2), AX
	LEAQ (SI)(AX*1), R8    // x[2k] of line 3
	LEAQ (CX)(AX*1), DX    // low k-1 of line 3
	LEAQ (R12)(R12*2), AX
	LEAQ (R11)(AX*1), R10  // high k-1 of line 3
	VBROADCASTSD ·liftConsts+0(SB), Y10  // α
	VBROADCASTSD ·liftConsts+8(SB), Y11  // β
	VBROADCASTSD ·liftConsts+16(SB), Y12 // γ
	VBROADCASTSD ·liftConsts+24(SB), Y13 // δ
	VBROADCASTSD ·liftConsts+32(SB), Y14 // ε
	VBROADCASTSD ·liftConsts+40(SB), Y15 // -ε
	VMOVUPD lift_d(DI), Y4
	VMOVUPD lift_s(DI), Y5
	VMOVUPD lift_e(DI), Y6
	VMOVSD  (SI), X0
	VMOVHPD (SI)(BX*1), X0, X0
	VMOVSD  (SI)(BX*2), X1
	VMOVHPD (R8), X1, X1
	VINSERTF128 $1, X1, Y0, Y0        // x0

forwardLine:
	// x1, x2: x[2k+1] and x[2k+2] of each line, two 4x2 transposes
	VMOVUPD 8(SI), X1
	VINSERTF128 $1, 8(SI)(BX*2), Y1, Y1
	VMOVUPD 8(SI)(BX*1), X2
	VINSERTF128 $1, 8(R8), Y2, Y2
	VUNPCKLPD Y2, Y1, Y3              // x1
	VUNPCKHPD Y2, Y1, Y2              // x2

	// a := x1 + α*(x0+x2)
	VADDPD Y2, Y0, Y7
	VMULPD Y7, Y10, Y7
	VADDPD Y7, Y3, Y7

	// b := x0 + β*(a+d)
	VADDPD Y4, Y7, Y8
	VMULPD Y8, Y11, Y8
	VADDPD Y8, Y0, Y8

	// c := d + γ*(s+b)
	VADDPD Y8, Y5, Y9
	VMULPD Y9, Y12, Y9
	VADDPD Y9, Y4, Y9

	// lo = ε * (s + δ*(c+e))
	VADDPD Y6, Y9, Y1
	VMULPD Y1, Y13, Y1
	VADDPD Y1, Y5, Y1
	VMULPD Y1, Y14, Y1
	VMOVSD  X1, (CX)
	VMOVHPD X1, (CX)(BX*1)
	VEXTRACTF128 $1, Y1, X1
	VMOVSD  X1, (CX)(BX*2)
	VMOVHPD X1, (DX)

	// hi = c / -ε
	VDIVPD Y15, Y9, Y3
	VMOVSD  X3, (R11)
	VMOVHPD X3, (R11)(R12*1)
	VEXTRACTF128 $1, Y3, X3
	VMOVSD  X3, (R11)(R12*2)
	VMOVHPD X3, (R10)

	// d, s, e, x0 = a, b, c, x2
	VMOVAPD Y7, Y4
	VMOVAPD Y8, Y5
	VMOVAPD Y9, Y6
	VMOVAPD Y2, Y0

	ADDQ $16, SI
	ADDQ $16, R8
	ADDQ $8, CX
	ADDQ $8, DX
	ADDQ $8, R11
	ADDQ $8, R10
	DECQ R13
	JNZ  forwardLine

	VMOVUPD Y4, lift_d(DI)
	VMOVUPD Y5, lift_s(DI)
	VMOVUPD Y6, lift_e(DI)
	VZEROUPPER
	RET

// func inverseLineLanes(st *lift, x *float64, ls int, lo *float64, nl, rows int)
TEXT ·inverseLineLanes(SB), NOSPLIT, $0-48
	MOVQ st+0(FP), DI
	MOVQ x+8(FP), SI       // line 0
	MOVQ ls+16(FP), BX
	SHLQ $3, BX
	MOVQ lo+24(FP), R11
	MOVQ nl+32(FP), R12
	SHLQ $3, R12
	MOVQ rows+40(FP), R13
	VMOVSD  (SI), X0
	VMOVHPD (SI)(BX*1), X0, X0
	LEAQ (BX)(BX*2), AX
	VMOVSD  (SI)(BX*2), X1
	VMOVHPD (SI)(AX*1), X1, X1
	VINSERTF128 $1, X1, Y0, Y0        // x0: x[2k-4] of each line
	LEAQ 16(SI)(R12*1), R9 // high k of line 0: x[nl+k]
	LEAQ (R9)(AX*1), R8    // high k of line 3
	LEAQ 8(SI)(AX*1), DX   // x[2k-3] of line 3
	ADDQ $8, SI            // x[2k-3] of line 0
	ADDQ $16, R11          // low k of line 0
	LEAQ (R12)(R12*2), AX
	LEAQ (R11)(AX*1), R10  // low k of line 3
	VBROADCASTSD ·liftConsts+0(SB), Y10  // α
	VBROADCASTSD ·liftConsts+8(SB), Y11  // β
	VBROADCASTSD ·liftConsts+16(SB), Y12 // γ
	VBROADCASTSD ·liftConsts+24(SB), Y13 // δ
	VBROADCASTSD ·liftConsts+32(SB), Y14 // ε
	VBROADCASTSD ·liftConsts+40(SB), Y15 // -ε
	VMOVUPD lift_d(DI), Y4
	VMOVUPD lift_s(DI), Y5
	VMOVUPD lift_e(DI), Y6

inverseLine:
	VMOVSD  (R9), X1
	VMOVHPD (R9)(BX*1), X1, X1
	VMOVSD  (R9)(BX*2), X2
	VMOVHPD (R8), X2, X2
	VINSERTF128 $1, X2, Y1, Y1        // hi
	VMOVSD  (R11), X2
	VMOVHPD (R11)(R12*1), X2, X2
	VMOVSD  (R11)(R12*2), X3
	VMOVHPD (R10), X3, X3
	VINSERTF128 $1, X3, Y2, Y2        // lo

	// a := hi * -ε
	VMULPD Y15, Y1, Y7

	// b := lo/ε - δ*(a+d)
	VDIVPD Y14, Y2, Y2
	VADDPD Y4, Y7, Y8
	VMULPD Y8, Y13, Y8
	VSUBPD Y8, Y2, Y8

	// c := d - γ*(s+b)
	VADDPD Y8, Y5, Y9
	VMULPD Y9, Y12, Y9
	VSUBPD Y9, Y4, Y9

	// x2 := s - β*(c+e)
	VADDPD Y6, Y9, Y3
	VMULPD Y3, Y11, Y3
	VSUBPD Y3, Y5, Y3

	// x[2k-3] = e - α*(x0+x2); x[2k-2] = x2
	VADDPD Y3, Y0, Y1
	VMULPD Y1, Y10, Y1
	VSUBPD Y1, Y6, Y1
	VUNPCKLPD Y3, Y1, Y2              // lines 0 and 2
	VUNPCKHPD Y3, Y1, Y1              // lines 1 and 3
	VMOVUPD X2, (SI)
	VMOVUPD X1, (SI)(BX*1)
	VEXTRACTF128 $1, Y2, (SI)(BX*2)
	VEXTRACTF128 $1, Y1, (DX)

	// d, s, e, x0 = a, b, c, x2
	VMOVAPD Y7, Y4
	VMOVAPD Y8, Y5
	VMOVAPD Y9, Y6
	VMOVAPD Y3, Y0

	ADDQ $8, R9
	ADDQ $8, R8
	ADDQ $8, R11
	ADDQ $8, R10
	ADDQ $16, SI
	ADDQ $16, DX
	DECQ R13
	JNZ  inverseLine

	VMOVUPD Y4, lift_d(DI)
	VMOVUPD Y5, lift_s(DI)
	VMOVUPD Y6, lift_e(DI)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
