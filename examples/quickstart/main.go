// Quickstart: clone one workload end-to-end.
//
// The program profiles the crc32 benchmark, generates its synthetic
// clone, runs both on the paper's base microarchitecture, and prints the
// IPC/power comparison plus a snippet of the distributable C source —
// the complete performance-cloning pipeline in one page of code.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"perfclone/internal/codegen"
	"perfclone/internal/power"
	"perfclone/internal/profile"
	"perfclone/internal/synth"
	"perfclone/internal/uarch"
	"perfclone/internal/workloads"
)

func main() {
	// 1. Build the "proprietary" application.
	w, err := workloads.ByName("crc32")
	if err != nil {
		log.Fatal(err)
	}
	app := w.Build()

	// 2. Profile its microarchitecture-independent characteristics
	//    (instruction mix, SFG, strides, branch transition rates).
	prof, err := profile.Collect(app, profile.Options{MaxInsts: 1_000_000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiled %s: %d insts, %d SFG nodes, stride coverage %.1f%%\n",
		prof.Name, prof.TotalInsts, len(prof.NodeList), 100*prof.StrideCoverage())

	// 3. Generate the synthetic benchmark clone.
	clone, err := synth.Generate(prof, synth.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clone: %d basic blocks, %d-instruction body, %d iterations, %d stream pools\n",
		len(clone.Program.Blocks), clone.BodyInsts, clone.Iterations, len(clone.Pools))

	// 4. Compare both on the paper's Table 2 base configuration.
	lim := uarch.Limits{Warmup: 150_000, MaxInsts: 500_000}
	realStats, err := uarch.RunLimitsContext(context.Background(), app, uarch.BaseConfig(), lim)
	if err != nil {
		log.Fatal(err)
	}
	cloneStats, err := uarch.RunLimitsContext(context.Background(), clone.Program, uarch.BaseConfig(), lim)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-12s %10s %10s\n", "", "real", "clone")
	fmt.Printf("%-12s %10.3f %10.3f\n", "IPC", realStats.IPC(), cloneStats.IPC())
	fmt.Printf("%-12s %9.2f%% %9.2f%%\n", "L1D miss",
		100*realStats.L1D.MissRate(), 100*cloneStats.L1D.MissRate())
	fmt.Printf("%-12s %9.2f%% %9.2f%%\n", "mispredict",
		100*realStats.MispredRate(), 100*cloneStats.MispredRate())
	fmt.Printf("%-12s %10.2f %10.2f\n", "avg power",
		power.Estimate(realStats).AvgPower, power.Estimate(cloneStats).AvgPower)

	// 5. Emit the distribution artifact: C with embedded asm.
	src, err := codegen.EmitC(clone.Program, codegen.Options{FuncName: "crc32_clone"})
	if err != nil {
		log.Fatal(err)
	}
	lines := strings.Split(src, "\n")
	fmt.Printf("\nfirst lines of the distributable clone (%d lines total):\n", len(lines))
	for _, l := range lines[:12] {
		fmt.Println("  ", l)
	}
}
