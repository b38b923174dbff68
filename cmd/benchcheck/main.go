// Command benchcheck compares `go test -bench` output against the
// committed timing baseline (BENCH_timing.json) and fails when any
// benchmark's ns/op regressed past the threshold, so a change that
// quietly slows the fused-replay hot path cannot merge on green CI.
//
// Usage:
//
//	go test -run '^$' -bench 'Table3|Fig4' -benchtime 1x . | benchcheck -baseline BENCH_timing.json
//	benchcheck -baseline BENCH_timing.json -input BENCH_ci.json -max-regress 0.10
//
// Benchmarks present in the input but absent from the baseline are
// reported and skipped; a baseline entry with no matching measurement is
// not an error (the bench filter may be narrower than the baseline).
// Exit codes: 0 when every matched benchmark is within threshold, 1 on
// regression or I/O error, 2 on usage errors.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// baselineFile mirrors the subset of BENCH_timing.json benchcheck needs.
type baselineFile struct {
	Benchmarks map[string]struct {
		AfterNsPerOp float64 `json:"after_ns_per_op"`
	} `json:"benchmarks"`
}

// parseBenchLines extracts name -> ns/op from `go test -bench` output.
// Names are normalized by stripping the -N GOMAXPROCS suffix so runs on
// any host match the baseline keys. A benchmark that appears multiple
// times (e.g. -count) reports the median of its samples, so one noisy
// run cannot decide the verdict.
func parseBenchLines(r io.Reader) (map[string]float64, error) {
	samples := make(map[string][]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		// fields[1] is the iteration count; after it come value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != "ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchcheck: %s: bad ns/op %q", name, fields[i])
			}
			samples[name] = append(samples[name], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(samples))
	for name, vs := range samples {
		out[name] = median(vs)
	}
	return out, nil
}

// median returns the middle value of vs (the mean of the two middle
// values for an even count), reordering vs.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// check compares measurements against the baseline, writes one greppable
// line per matched benchmark plus a one-line total, and returns the
// names that regressed past maxRegress.
func check(w io.Writer, base baselineFile, got map[string]float64, maxRegress float64) []string {
	var regressed []string
	var ok, skip int
	for name, ns := range got {
		b, known := base.Benchmarks[name]
		if !known || b.AfterNsPerOp <= 0 {
			skip++
			fmt.Fprintf(w, "benchcheck: SKIP %s: no baseline entry\n", name)
			continue
		}
		ratio := ns/b.AfterNsPerOp - 1
		verdict := "OK"
		if ratio > maxRegress {
			verdict = "REGRESSED"
			regressed = append(regressed, name)
		} else {
			ok++
		}
		fmt.Fprintf(w, "benchcheck: %s %s: %.0f ns/op vs baseline %.0f (%+.1f%%, threshold +%.1f%%)\n",
			verdict, name, ns, b.AfterNsPerOp, 100*ratio, 100*maxRegress)
	}
	fmt.Fprintf(w, "benchcheck: %d ok, %d skip, %d regressed\n", ok, skip, len(regressed))
	return regressed
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_timing.json", "committed timing baseline to compare against")
	input := flag.String("input", "", "bench output file (default: stdin)")
	maxRegress := flag.Float64("max-regress", 0.10, "maximum tolerated ns/op regression as a fraction (0.10 = +10%)")
	flag.Parse()

	if *maxRegress < 0 {
		fmt.Fprintln(os.Stderr, "benchcheck: -max-regress must be >= 0")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", *baselinePath, err)
		os.Exit(1)
	}

	in := io.Reader(os.Stdin)
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	got, err := parseBenchLines(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(got) == 0 {
		fmt.Fprintln(os.Stderr, "benchcheck: no benchmark results in input")
		os.Exit(1)
	}
	if regressed := check(os.Stderr, base, got, *maxRegress); len(regressed) > 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: FAIL: %s regressed more than %.0f%%\n",
			strings.Join(regressed, ", "), 100**maxRegress)
		os.Exit(1)
	}
}
