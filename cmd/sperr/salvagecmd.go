package main

// The fsck and repair subcommands: offline integrity tooling over the
// salvage reader. fsck prints a per-frame damage map and exits 3 when the
// container needs attention; repair rewrites a damaged container keeping
// every verified frame byte-for-byte and regenerating the index footer.

import (
	"fmt"
	"os"

	"sperr"
)

func runFsck(args []string) {
	if len(args) != 1 {
		usageFatal("fsck takes exactly one argument: sperr fsck FILE")
	}
	stream, err := os.ReadFile(args[0])
	if err != nil {
		fatal("read %s: %v", args[0], err)
	}
	rep, err := sperr.Audit(stream)
	if err != nil {
		fatalStream("fsck", err)
	}
	printDamageMap(args[0], rep)
	if fsckCorrupt(rep) {
		os.Exit(exitCorrupt)
	}
}

// fsckCorrupt decides the exit status: any lost chunk or unattributable
// byte range is damage, and so is a footer that failed to parse even
// when every frame survived (the container still wants a repair).
func fsckCorrupt(rep *sperr.SalvageReport) bool {
	return rep.Degraded() || len(rep.LostRanges) > 0 || !rep.IndexIntact
}

func printDamageMap(name string, rep *sperr.SalvageReport) {
	fmt.Printf("%s: container v%d, %d chunks\n", name, rep.Version, rep.NumChunks)
	for i := range rep.Chunks {
		c := &rep.Chunks[i]
		loc := "not located"
		if c.Offset >= 0 {
			loc = fmt.Sprintf("offset %-8d %7d bytes", c.Offset, c.Length)
		}
		status := "ok"
		if !c.Recovered {
			status = "LOST: " + c.Reason
		}
		fmt.Printf("  frame %-4d %-28s %s\n", i, loc, status)
	}
	if rep.IndexIntact {
		fmt.Println("  index      intact")
	} else {
		fmt.Println("  index      DAMAGED (frames located by scan)")
	}
	for _, lr := range rep.LostRanges {
		fmt.Printf("  lost bytes [%d,%d)\n", lr[0], lr[1])
	}
	if rep.Degraded() {
		fmt.Printf("%s: %d of %d chunks recoverable\n", name, rep.Recovered, rep.NumChunks)
	} else if fsckCorrupt(rep) {
		fmt.Printf("%s: all chunks recoverable, container needs repair\n", name)
	} else {
		fmt.Printf("%s: clean\n", name)
	}
}

func runRepair(args []string) {
	if len(args) != 2 {
		usageFatal("repair takes exactly two arguments: sperr repair IN OUT")
	}
	stream, err := os.ReadFile(args[0])
	if err != nil {
		fatal("read %s: %v", args[0], err)
	}
	out, rep, err := sperr.Repair(stream)
	if err != nil {
		fatalStream("repair", err)
	}
	if err := os.WriteFile(args[1], out, 0o644); err != nil {
		fatal("write %s: %v", args[1], err)
	}
	if info, err := sperr.Describe(out); err == nil && info.Version != rep.Version {
		fmt.Printf("%s: upgraded from v%d to v%d, %d chunks -> %s\n",
			args[0], rep.Version, info.Version, rep.NumChunks, args[1])
		return
	}
	fmt.Printf("%s: kept %d of %d chunks (%d replaced by zero-fill placeholders) -> %s\n",
		args[0], rep.Recovered, rep.NumChunks, rep.Skipped, args[1])
}
