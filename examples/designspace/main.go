// Designspace: drive the paper's five microarchitecture design changes
// (Table 3) with a clone standing in for the real application, and report
// how faithfully the clone predicts each change's speedup and power delta.
//
// Run with:
//
//	go run ./examples/designspace [workload]
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"perfclone/internal/power"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/stats"
	"perfclone/internal/synth"
	"perfclone/internal/uarch"
	"perfclone/internal/workloads"
)

func measure(p *prog.Program, cfg uarch.Config) (ipc, pw float64, err error) {
	st, err := uarch.RunLimitsContext(context.Background(), p, cfg, uarch.Limits{Warmup: 150_000, MaxInsts: 500_000})
	if err != nil {
		return 0, 0, err
	}
	return st.IPC(), power.Estimate(st).AvgPower, nil
}

func main() {
	name := "adpcm"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	w, err := workloads.ByName(name)
	if err != nil {
		log.Fatal(err)
	}
	app := w.Build()
	prof, err := profile.CollectContext(context.Background(), app, profile.Options{MaxInsts: 1_000_000})
	if err != nil {
		log.Fatal(err)
	}
	clone, err := synth.Generate(prof, synth.Config{})
	if err != nil {
		log.Fatal(err)
	}

	base := uarch.BaseConfig()
	realBaseIPC, realBasePow, err := measure(app, base)
	if err != nil {
		log.Fatal(err)
	}
	cloneBaseIPC, cloneBasePow, err := measure(clone.Program, base)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("design-space study for %s\n", name)
	fmt.Printf("base: real IPC %.3f, clone IPC %.3f\n\n", realBaseIPC, cloneBaseIPC)
	fmt.Printf("%-22s %12s %12s %10s %10s\n",
		"design change", "real speedup", "clone spdup", "RE(ipc)", "RE(power)")
	for _, ch := range uarch.DesignChanges() {
		cfg := ch.Apply(base)
		realIPC, realPow, err := measure(app, cfg)
		if err != nil {
			log.Fatal(err)
		}
		cloneIPC, clonePow, err := measure(clone.Program, cfg)
		if err != nil {
			log.Fatal(err)
		}
		reIPC, err := stats.RelativeError(realBaseIPC, realIPC, cloneBaseIPC, cloneIPC)
		if err != nil {
			log.Fatal(err)
		}
		rePow, err := stats.RelativeError(realBasePow, realPow, cloneBasePow, clonePow)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %11.3fx %11.3fx %9.2f%% %9.2f%%\n",
			ch.Name, realIPC/realBaseIPC, cloneIPC/cloneBaseIPC, 100*reIPC, 100*rePow)
	}
	fmt.Println("\nRE is the paper's relative-error metric (Section 5.2): how far the")
	fmt.Println("clone's predicted change deviates from the real program's change.")
}
