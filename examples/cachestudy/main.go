// Cachestudy: use a synthetic clone as a proxy in a cache design study —
// the Figure 4/5 scenario. A vendor who cannot ship their application
// ships the clone instead; the architect sweeps the paper's 28 L1 data
// cache configurations with the clone and picks the same design point
// they would have picked with the real program.
//
// Run with:
//
//	go run ./examples/cachestudy [workload]
package main

import (
	"fmt"
	"log"
	"os"

	"perfclone/internal/cache"
	"perfclone/internal/dyntrace"
	"perfclone/internal/experiments"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/stats"
	"perfclone/internal/synth"
	"perfclone/internal/workloads"
)

func main() {
	name := "dijkstra"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	w, err := workloads.ByName(name)
	if err != nil {
		log.Fatal(err)
	}
	app := w.Build()
	prof, err := profile.Collect(app, profile.Options{MaxInsts: 1_000_000})
	if err != nil {
		log.Fatal(err)
	}
	clone, err := synth.Generate(prof, synth.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// Capture each program's dynamic stream once, then sweep its data
	// references through all 28 configurations in one pass.
	cfgs := cache.Sweep28()
	mpi := func(p *prog.Program) []float64 {
		t, err := dyntrace.Capture(p, 1_000_000)
		if err != nil {
			log.Fatal(err)
		}
		m, err := experiments.CacheMPIFromTrace(t, cfgs, 0)
		if err != nil {
			log.Fatal(err)
		}
		return m
	}
	realMPI, cloneMPI := mpi(app), mpi(clone.Program)

	fmt.Printf("cache design study for %s (misses per 1000 instructions)\n\n", name)
	fmt.Printf("%-18s %10s %10s\n", "configuration", "real", "clone")
	bestReal, bestClone := 0, 0
	for i, cfg := range cfgs {
		fmt.Printf("%-18s %10.3f %10.3f\n", cfg.Name, 1000*realMPI[i], 1000*cloneMPI[i])
		if realMPI[i] < realMPI[bestReal] {
			bestReal = i
		}
		if cloneMPI[i] < cloneMPI[bestClone] {
			bestClone = i
		}
	}
	rel := func(v []float64) []float64 {
		out := make([]float64, len(v)-1)
		for k := 1; k < len(v); k++ {
			out[k-1] = v[k] - v[0]
		}
		return out
	}
	r, err := stats.Pearson(rel(cloneMPI), rel(realMPI))
	if err != nil {
		log.Fatal(err)
	}
	rank, err := stats.Spearman(cloneMPI, realMPI)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPearson correlation (Fig 4 metric): %.3f\n", r)
	fmt.Printf("rank correlation of all 28 configs: %.3f\n", rank)
	fmt.Printf("best config by real program: %s\n", cfgs[bestReal].Name)
	fmt.Printf("best config by clone:        %s\n", cfgs[bestClone].Name)
	if bestReal == bestClone {
		fmt.Println("→ the clone selects the same design point as the real application")
	}
}
