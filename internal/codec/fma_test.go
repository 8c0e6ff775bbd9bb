package codec

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestNoImplicitFMA holds the codec stack (wavelet, speck, outlier and
// codec) to one arithmetic on every architecture. The Go spec lets a
// compiler fuse x*y + z into one rounding; amd64 never does, but arm64,
// ppc64le, s390x and riscv64 do, and a fused sum of squares moves
// ModeRMSE truncation points, a fused lifting or reconstruction step a
// decoded value. An explicit float64(...) around the product forbids the
// fusion. The test compiles the packages for those four GOARCHes with -S
// and fails on any fused multiply-add instruction whose source line is not
// an explicit math.FMA call, which rounds once everywhere by definition.
func TestNoImplicitFMA(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the packages four times; skipped under -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	// "	0x0024 00036 (/path/intpath.go:177)	FMADDD	F1, F0, F3, F3"
	insn := regexp.MustCompile(`^\s+0x[0-9a-f]+ \d+ \((.+\.go):(\d+)\)\s+([A-Z][A-Z0-9.]*)`)
	fused := regexp.MustCompile(`^FN?M(ADD|SUB)`)
	sources := map[string][]string{}
	sourceLine := func(file string, line int) string {
		lines, ok := sources[file]
		if !ok {
			b, err := os.ReadFile(file)
			if err != nil {
				t.Fatalf("reading %s: %v", file, err)
			}
			lines = strings.Split(string(b), "\n")
			sources[file] = lines
		}
		if line < 1 || line > len(lines) {
			t.Fatalf("%s has no line %d", file, line)
		}
		return lines[line-1]
	}
	for _, arch := range []string{"arm64", "ppc64le", "s390x", "riscv64"} {
		cmd := exec.Command(goBin, "build", "-gcflags=-S",
			"sperr/internal/wavelet", "sperr/internal/speck", "sperr/internal/outlier", "sperr/internal/codec")
		cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0",
			"GOWORK=off", "GOPROXY=off", "GOTOOLCHAIN=local")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s go build -gcflags=-S: %v\n%s", arch, err, out)
		}
		insns, explicit := 0, 0
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			m := insn.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			insns++
			if !fused.MatchString(m[3]) {
				continue
			}
			line, _ := strconv.Atoi(m[2])
			if src := sourceLine(m[1], line); !strings.Contains(src, "math.FMA(") {
				t.Errorf("GOARCH=%s: %s at %s:%d is an implicit fused multiply-add: %s",
					arch, m[3], m[1], line, strings.TrimSpace(src))
				continue
			}
			explicit++
		}
		// The explicit math.FMA sites (speck's quantizeOne, PlaneErr2Scratch)
		// compile to the same mnemonics, so finding none means the
		// pattern no longer matches the listing.
		if insns < 1000 || explicit == 0 {
			t.Fatalf("GOARCH=%s: parsed %d instructions, %d math.FMA sites; the listing format changed", arch, insns, explicit)
		}
	}
}
