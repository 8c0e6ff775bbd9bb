// Command sperr is the command-line front end of the SPERR compressor:
// it compresses raw binary float32/float64 volumes into SPERR streams and
// back, mirroring the tool the paper's runtime comparisons invoke.
//
// Examples:
//
//	sperr -c -in field.f32 -f32 -dims 512,512,512 -tol 1e-6 -out field.sperr
//	sperr -c -in field.f64 -dims 384,384,256 -bpp 4 -out field.sperr
//	sperr -c -in field.f64 -dims 256,256,256 -psnr 100 -out field.sperr
//	sperr -d -in field.sperr -out recon.f64
//	sperr -d -in field.sperr -partial 0.1 -out preview.f64   # 10% prefix
//	sperr -d -in field.sperr -lowres 2 -out coarse.f64       # 2 levels coarser
//	sperr -d -in field.sperr -region 0,0,0,64,64,64 -out cut.f64
//	sperr -c -in field.f64 -dims 256,256,256 -tol 1e-4 -codec adaptive -out field.sperr
//	sperr fsck field.sperr                    # verify every frame, print damage map
//	sperr repair damaged.sperr fixed.sperr    # keep verified frames, rebuild index
//	sperr inspect field.sperr                 # per-chunk codec map, no decode
//	sperr inspect -json field.sperr           # same facts, machine-readable
//
// Exit codes: 0 success, 1 I/O or internal error, 2 bad usage, 3 corrupt
// input (including an fsck that found damage).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"sperr"
	"sperr/internal/rawio"
)

// The tool's standardized exit codes. Scripts branch on these: a backup
// validator distinguishes "archive damaged" (run repair) from "disk
// trouble" (retry).
const (
	exitOK      = 0
	exitIO      = 1
	exitUsage   = 2
	exitCorrupt = 3
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "fsck":
			runFsck(os.Args[2:])
			return
		case "repair":
			runRepair(os.Args[2:])
			return
		case "inspect":
			runInspect(os.Args[2:])
			return
		}
	}
	var (
		compress   = flag.Bool("c", false, "compress")
		decompress = flag.Bool("d", false, "decompress")
		info       = flag.Bool("info", false, "describe a compressed stream")
		in         = flag.String("in", "", "input file (raw floats when compressing)")
		out        = flag.String("out", "", "output file")
		dimsStr    = flag.String("dims", "", "volume extent nx,ny,nz (nz=1 for 2D); required with -c")
		tol        = flag.Float64("tol", 0, "point-wise error tolerance (PWE mode)")
		bpp        = flag.Float64("bpp", 0, "target bits per point (size-bounded mode)")
		rmse       = flag.Float64("rmse", 0, "target root-mean-square error (average-error mode)")
		psnr       = flag.Float64("psnr", 0, "target PSNR in dB over the data range (average-error mode)")
		codecName  = flag.String("codec", "", "coding backend: sperr (default), sz, zfp, tthresh, mgard, or adaptive (per-chunk selection; requires -tol)")
		partial    = flag.Float64("partial", 0, "decompress from this fraction (0,1] of each chunk's embedded bits")
		lowres     = flag.Int("lowres", 0, "decompress at a coarser resolution: drop this many wavelet levels")
		region     = flag.String("region", "", "decompress only x,y,z,nx,ny,nz")
		f32        = flag.Bool("f32", false, "input/output values are float32 (default float64)")
		chunkStr   = flag.String("chunk", "", "chunk extent cx,cy,cz (default 256,256,256)")
		workers    = flag.Int("workers", 0, "parallel chunk workers (default GOMAXPROCS)")
		qfactor    = flag.Float64("q", 0, "quantization step as a multiple of tol (default 1.5)")
		quiet      = flag.Bool("quiet", false, "suppress the stats summary")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the compress/decompress run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile taken after the compress/decompress run to this file")
	)
	flag.Parse()

	// Validate the flag combination up front, before any file is opened or
	// data is streamed, so a bad invocation exits with usage instead of
	// failing mid-pipeline.
	switch {
	case *info:
		if *compress || *decompress {
			usageFatal("-info cannot be combined with -c or -d")
		}
		if *in == "" {
			usageFatal("-in is required")
		}
	case *compress && *decompress:
		usageFatal("-c and -d are mutually exclusive")
	case !*compress && !*decompress:
		usageFatal("exactly one of -c, -d or -info is required")
	case *compress:
		if *dimsStr == "" {
			usageFatal("-c requires -dims nx,ny,nz")
		}
		modes := 0
		for _, v := range []float64{*tol, *bpp, *rmse, *psnr} {
			if v > 0 {
				modes++
			}
		}
		if modes != 1 {
			usageFatal("-c requires exactly one of -tol, -bpp, -rmse, -psnr to be positive")
		}
		if *partial != 0 || *lowres != 0 || *region != "" {
			usageFatal("-partial, -lowres and -region apply only to -d")
		}
		if *qfactor < 0 {
			usageFatal("-q must not be negative (0 means the default %g), got %g", sperr.DefaultQFactor, *qfactor)
		}
		switch *codecName {
		case "", "sperr", "sz", "zfp", "tthresh", "mgard", "adaptive":
		default:
			usageFatal("-codec %s is not a known backend (sperr, sz, zfp, tthresh, mgard, adaptive)", *codecName)
		}
		if *codecName != "" && *codecName != "sperr" && !(*tol > 0) {
			usageFatal("-codec %s requires -tol (PWE mode)", *codecName)
		}
	case *decompress:
		picked := 0
		for _, set := range []bool{*partial != 0, *lowres != 0, *region != ""} {
			if set {
				picked++
			}
		}
		if picked > 1 {
			usageFatal("-partial, -lowres and -region are mutually exclusive")
		}
		if *partial != 0 && !(*partial > 0 && *partial <= 1) {
			usageFatal("-partial must be in (0,1], got %g", *partial)
		}
		if *lowres < 0 {
			usageFatal("-lowres must be non-negative, got %d", *lowres)
		}
		if *tol != 0 || *bpp != 0 || *rmse != 0 || *psnr != 0 ||
			*dimsStr != "" || *chunkStr != "" || *qfactor != 0 || *codecName != "" {
			usageFatal("compression flags (-dims, -tol, -bpp, -rmse, -psnr, -chunk, -q, -codec) apply only to -c")
		}
	}
	if !*info && (*in == "" || *out == "") {
		usageFatal("-in and -out are required")
	}

	if *info {
		if *cpuprofile != "" || *memprofile != "" {
			usageFatal("-cpuprofile and -memprofile apply only to -c and -d")
		}
		runInfo(*in)
		return
	}
	stopProfiles := startProfiles(*cpuprofile, *memprofile)
	if *compress {
		runCompress(compressSpec{
			in: *in, out: *out, dims: *dimsStr,
			tol: *tol, bpp: *bpp, rmse: *rmse, psnr: *psnr,
			f32: *f32, chunk: *chunkStr, workers: *workers,
			qfactor: *qfactor, quiet: *quiet,
			codec: *codecName,
		})
	} else {
		runDecompress(*in, *out, *f32, *partial, *lowres, *region, *workers, *quiet)
	}
	stopProfiles()
}

// startProfiles begins CPU profiling and/or arranges a heap profile for
// the core compress/decompress run; the returned stop function finalizes
// both. Profiles cover only successful runs — the fatal paths exit
// without flushing, which is fine for their purpose (profiling the
// kernels, not the error handling).
func startProfiles(cpuPath, memPath string) func() {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fatal("create %s: %v", cpuPath, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("start cpu profile: %v", err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fatal("close %s: %v", cpuPath, err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fatal("create %s: %v", memPath, err)
			}
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal("write heap profile: %v", err)
			}
			if err := f.Close(); err != nil {
				fatal("close %s: %v", memPath, err)
			}
		}
	}
}

func runInfo(in string) {
	stream, err := os.ReadFile(in)
	if err != nil {
		fatal("read %s: %v", in, err)
	}
	fi, err := sperr.Describe(stream)
	if err != nil {
		fatalStream("describe", err)
	}
	n := fi.Dims[0] * fi.Dims[1] * fi.Dims[2]
	fmt.Printf("volume      %dx%dx%d (%d points)\n", fi.Dims[0], fi.Dims[1], fi.Dims[2], n)
	fmt.Printf("chunks      %d of up to %dx%dx%d\n", fi.NumChunks,
		fi.ChunkDims[0], fi.ChunkDims[1], fi.ChunkDims[2])
	fmt.Printf("mode        %s", fi.Mode)
	if fi.Mode == "pwe" || fi.Mode == "adaptive" {
		fmt.Printf(" (tolerance %.6g)", fi.Tolerance)
	}
	fmt.Println()
	if fi.Version >= 3 {
		fmt.Printf("codecs      %s\n", formatCodecCounts(fi.CodecCounts))
	}
	fmt.Printf("size        %d bytes (%.3f bits/point)\n", fi.CompressedBytes,
		float64(fi.CompressedBytes*8)/float64(n))
	fmt.Printf("coders      SPECK %d bits, outliers %d bits (pre-lossless)\n",
		fi.SpeckBits, fi.OutlierBits)
}

type compressSpec struct {
	in, out, dims, chunk string
	codec                string
	tol, bpp, rmse, psnr float64
	qfactor              float64
	workers              int
	f32, quiet           bool
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "sperr: "+format+"\n", args...)
	os.Exit(exitIO)
}

// fatalStream reports a failure whose cause may be a corrupt container,
// mapping it to exit 3 (corrupt input) versus 1 (other I/O).
func fatalStream(context string, err error) {
	fmt.Fprintf(os.Stderr, "sperr: %s: %v\n", context, err)
	if errors.Is(err, sperr.ErrCorrupt) {
		os.Exit(exitCorrupt)
	}
	os.Exit(exitIO)
}

// fatalCompress reports a failed compression. A tolerance below the
// data's float64 resolution is a usage error (exit 2); anything else is
// I/O (exit 1).
func fatalCompress(err error) {
	fmt.Fprintf(os.Stderr, "sperr: compress: %v\n", err)
	if errors.Is(err, sperr.ErrToleranceBelowResolution) {
		os.Exit(exitUsage)
	}
	os.Exit(exitIO)
}

// usageFatal reports a bad flag combination and exits non-zero with a
// pointer at the usage text, before any I/O has happened.
func usageFatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "sperr: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "usage: sperr (-c -dims nx,ny,nz (-tol|-bpp|-rmse|-psnr) | -d [-partial|-lowres|-region] | -info) -in FILE [-out FILE]")
	fmt.Fprintln(os.Stderr, "       sperr fsck FILE | sperr repair IN OUT | sperr inspect [-json] FILE")
	fmt.Fprintln(os.Stderr, "run 'sperr -h' for the full flag list")
	os.Exit(exitUsage)
}

func parseDims(s string) [3]int {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		fatal("dims must be nx,ny,nz (got %q)", s)
	}
	var d [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			fatal("bad dimension %q", p)
		}
		d[i] = v
	}
	return d
}

func runCompress(c compressSpec) {
	if c.dims == "" {
		fatal("-dims is required when compressing")
	}
	modes := 0
	for _, v := range []float64{c.tol, c.bpp, c.rmse, c.psnr} {
		if v > 0 {
			modes++
		}
	}
	if modes != 1 {
		fatal("exactly one of -tol, -bpp, -rmse, -psnr must be positive")
	}
	dims := parseDims(c.dims)
	width := 8
	if c.f32 {
		width = 4
	}
	n := dims[0] * dims[1] * dims[2]

	// Stream file -> encoder: the raw input is read in bounded batches and
	// fed to the engine, so peak memory is the in-flight chunk set — never
	// the volume.
	inF, err := os.Open(c.in)
	if err != nil {
		fatal("read %s: %v", c.in, err)
	}
	defer inF.Close()
	if fi, err := inF.Stat(); err == nil && fi.Mode().IsRegular() {
		if want := int64(n) * int64(width); fi.Size() != want {
			fatal("%s holds %d bytes; dims %v need %d", c.in, fi.Size(), dims, want)
		}
	}
	outF, err := os.Create(c.out)
	if err != nil {
		fatal("write %s: %v", c.out, err)
	}
	bw := bufio.NewWriterSize(outF, 1<<20)

	opts := &sperr.Options{Workers: c.workers, QFactor: c.qfactor}
	if c.chunk != "" {
		opts.ChunkDims = parseDims(c.chunk)
	}
	if c.codec != "" && c.codec != "adaptive" {
		opts.Codec = c.codec
	}
	var enc *sperr.Encoder
	switch {
	case c.codec == "adaptive":
		enc, err = sperr.NewEncoderAdaptive(bw, dims, c.tol, opts)
	case c.tol > 0:
		enc, err = sperr.NewEncoderPWE(bw, dims, c.tol, opts)
	case c.bpp > 0:
		enc, err = sperr.NewEncoderBPP(bw, dims, c.bpp, opts)
	case c.rmse > 0:
		enc, err = sperr.NewEncoderRMSE(bw, dims, c.rmse, opts)
	default:
		// PSNR targets need the data range, which streaming cannot know up
		// front; scan the file once first, then rewind.
		var rng float64
		rng, err = scanRange(inF, width)
		if err == nil {
			_, err = inF.Seek(0, io.SeekStart)
		}
		if err != nil {
			fatal("scan %s: %v", c.in, err)
		}
		if !(rng > 0) {
			rng = 1
		}
		enc, err = sperr.NewEncoderRMSE(bw, dims, rng/math.Pow(10, c.psnr/20), opts)
	}
	if err != nil {
		fatalCompress(err)
	}
	fr, err := rawio.NewFloatReader(bufio.NewReaderSize(inF, 1<<20), width)
	if err != nil {
		fatal("read %s: %v", c.in, err)
	}
	batch := make([]float64, min(n, 1<<20))
	for fed := 0; fed < n; {
		k, rerr := fr.Read(batch[:min(len(batch), n-fed)])
		if k > 0 {
			if _, werr := enc.Write(batch[:k]); werr != nil {
				fatalCompress(werr)
			}
			fed += k
		}
		if rerr != nil {
			if fed < n {
				fatal("%s: %v after %d of %d values", c.in, rerr, fed, n)
			}
			break
		}
	}
	if err := enc.Close(); err != nil {
		fatalCompress(err)
	}
	if err := bw.Flush(); err != nil {
		fatal("write %s: %v", c.out, err)
	}
	if err := outF.Close(); err != nil {
		fatal("write %s: %v", c.out, err)
	}
	if !c.quiet {
		stats := enc.Stats()
		ratio := float64(n*width) / float64(stats.CompressedBytes)
		fmt.Printf("compressed %d points -> %d bytes (%.3f BPP, ratio %.1fx, %d chunks, %d outliers, %v)\n",
			stats.NumPoints, stats.CompressedBytes, stats.BPP, ratio,
			stats.NumChunks, stats.NumOutliers, stats.WallTime.Round(1000))
		if c.codec != "" {
			fmt.Printf("codecs %s\n", formatCodecCounts(stats.CodecCounts))
		}
	}
}

// scanRange streams through a raw float file once and returns max-min.
func scanRange(r io.Reader, width int) (float64, error) {
	fr, err := rawio.NewFloatReader(bufio.NewReaderSize(r, 1<<20), width)
	if err != nil {
		return 0, err
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	buf := make([]float64, 1<<16)
	for {
		k, err := fr.Read(buf)
		for _, v := range buf[:k] {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if err == io.EOF {
			return hi - lo, nil
		}
		if err != nil {
			return 0, err
		}
	}
}

func runDecompress(in, out string, f32 bool, partial float64, lowres int, region string, workers int, quiet bool) {
	width := 8
	if f32 {
		width = 4
	}
	if region == "" && lowres == 0 && partial == 0 {
		// Full decode: stream the container through the Decoder, scattering
		// decoded chunks into the output file as they complete. Peak memory
		// is O(workers x chunk size), never the volume.
		runStreamDecompress(in, out, width, workers, quiet)
		return
	}
	stream, err := os.ReadFile(in)
	if err != nil {
		fatal("read %s: %v", in, err)
	}
	var data []float64
	var dims [3]int
	switch {
	case region != "":
		parts := strings.Split(region, ",")
		if len(parts) != 6 {
			fatal("-region must be x,y,z,nx,ny,nz")
		}
		var vals [6]int
		for i, p := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				fatal("bad region component %q", p)
			}
			vals[i] = v
		}
		dims = [3]int{vals[3], vals[4], vals[5]}
		data, err = sperr.DecompressRegion(stream, [3]int{vals[0], vals[1], vals[2]}, dims)
	case lowres > 0:
		data, dims, err = sperr.DecompressLowRes(stream, lowres)
	default:
		data, dims, err = sperr.DecompressPartial(stream, partial)
	}
	if err != nil {
		fatalStream("decompress", err)
	}
	if err := rawio.WriteFloats(out, data, width); err != nil {
		fatal("write %s: %v", out, err)
	}
	if !quiet {
		fmt.Printf("decompressed %dx%dx%d (%d points) -> %s\n",
			dims[0], dims[1], dims[2], len(data), out)
	}
}

// runStreamDecompress reads container frames sequentially and writes each
// decoded chunk's rows straight to their offsets in the output file.
func runStreamDecompress(in, out string, width, workers int, quiet bool) {
	inF, err := os.Open(in)
	if err != nil {
		fatal("read %s: %v", in, err)
	}
	defer inF.Close()
	dec, err := sperr.NewDecoder(bufio.NewReaderSize(inF, 1<<20))
	if err != nil {
		fatalStream("decompress", err)
	}
	dec.SetWorkers(workers)
	vd := dec.Dims()
	outF, err := os.Create(out)
	if err != nil {
		fatal("write %s: %v", out, err)
	}
	err = dec.ForEachChunkParallel(func(ch sperr.DecodedChunk) error {
		// Chunks are disjoint, so each writes its own rows on its decode
		// goroutine; the row scratch is the call's own.
		var buf []byte
		nx := ch.Dims[0]
		for z := 0; z < ch.Dims[2]; z++ {
			for y := 0; y < ch.Dims[1]; y++ {
				row := ch.Data[(z*ch.Dims[1]+y)*nx : (z*ch.Dims[1]+y+1)*nx]
				off := ((int64(ch.Origin[2]+z)*int64(vd[1]) + int64(ch.Origin[1]+y)) * int64(vd[0])) + int64(ch.Origin[0])
				var werr error
				buf, werr = rawio.WriteFloatsAt(outF, row, width, off*int64(width), buf)
				if werr != nil {
					return werr
				}
			}
		}
		return nil
	})
	if err != nil {
		fatalStream("decompress", err)
	}
	if err := outF.Close(); err != nil {
		fatal("write %s: %v", out, err)
	}
	if !quiet {
		fmt.Printf("decompressed %dx%dx%d (%d points) -> %s\n",
			vd[0], vd[1], vd[2], vd[0]*vd[1]*vd[2], out)
	}
}
