// Command benchcheck compares `go test -bench` output against the
// committed timing baseline (BENCH_timing.json) and fails when any
// benchmark's ns/op regressed past the threshold, so a change that
// quietly slows the fused-replay hot path cannot merge on green CI. It
// also fails when a fidelity metric the baseline records (its
// "fidelity" blocks: relerr-ipc-% as relerr_ipc_pct, pearson-R as
// pearson_R, …) differs from the measured value at the precision the
// baseline prints it, so a "performance" change that alters simulated
// results cannot merge either.
//
// Usage:
//
//	go test -run '^$' -bench 'Table3|Fig4' -benchtime 1x . | benchcheck -baseline BENCH_timing.json
//	benchcheck -baseline BENCH_timing.json -input BENCH_ci.json -max-regress 0.10
//
// Benchmarks present in the input but absent from the baseline are
// reported and skipped; a baseline entry with no matching measurement is
// not an error (the bench filter may be narrower than the baseline).
// A benchmark that ran but did not report a recorded fidelity metric
// fails the fidelity check. Exit codes: 0 when every matched benchmark is
// within threshold and every recorded fidelity metric matches, 1 on
// regression, fidelity drift or I/O error, 2 on usage errors.
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

// fidelityBaseline mirrors the "fidelity" blocks of BENCH_timing.json.
// Values stay raw so the check can read the precision they are printed
// with; non-numeric entries (the "unchanged" flag) are ignored.
type fidelityBaseline struct {
	Benchmarks map[string]struct {
		Fidelity map[string]json.RawMessage `json:"fidelity"`
	} `json:"benchmarks"`
}

// fidelityKey maps a reported metric unit to its fidelity-block key:
// relerr-ipc-% -> relerr_ipc_pct, pearson-R -> pearson_R.
var fidelityKey = strings.NewReplacer("-", "_", "%", "pct").Replace

// nsPerOp picks each benchmark's ns/op out of its parsed metrics.
func nsPerOp(metrics map[string]map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(metrics))
	for name, m := range metrics {
		if ns, ok := m["ns/op"]; ok {
			out[name] = ns
		}
	}
	return out
}

// parseMetrics extracts name -> unit -> value for every metric in `go
// test -bench` output. Names are normalized by stripping the -N
// GOMAXPROCS suffix so runs on any host match the baseline keys. A
// benchmark that appears multiple times (e.g. -count) reports the median
// of each metric's samples, so one noisy run cannot decide the verdict.
func parseMetrics(r io.Reader) (map[string]map[string]float64, error) {
	samples := make(map[string]map[string][]float64)
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
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchcheck: %s: bad %s %q", name, fields[i+1], fields[i])
			}
			if samples[name] == nil {
				samples[name] = make(map[string][]float64)
			}
			samples[name][fields[i+1]] = append(samples[name][fields[i+1]], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]map[string]float64, len(samples))
	for name, units := range samples {
		out[name] = make(map[string]float64, len(units))
		for unit, vs := range units {
			out[name][unit] = median(vs)
		}
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

// checkFidelity compares every numeric metric in the baseline's fidelity
// blocks with the measured value, rounded to the decimals the baseline
// prints, for each benchmark that ran. It writes one greppable line per
// metric and returns the "benchmark metric" pairs that drifted or were
// not reported.
func checkFidelity(w io.Writer, base fidelityBaseline, got map[string]map[string]float64) []string {
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var drifted []string
	for _, name := range names {
		measured := make(map[string]float64)
		for unit, v := range got[name] {
			measured[fidelityKey(unit)] = v
		}
		keys := make([]string, 0, len(base.Benchmarks[name].Fidelity))
		for key := range base.Benchmarks[name].Fidelity {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			var want json.Number
			if err := json.Unmarshal(base.Benchmarks[name].Fidelity[key], &want); err != nil {
				continue // not a number: the "unchanged" flag
			}
			v, ok := measured[key]
			if !ok {
				drifted = append(drifted, name+" "+key)
				fmt.Fprintf(w, "benchcheck: FIDELITY-DRIFT %s %s: not reported (baseline %s)\n", name, key, want)
				continue
			}
			if atPrecision(v, want.String()) {
				fmt.Fprintf(w, "benchcheck: FIDELITY-OK %s %s: %g matches baseline %s\n", name, key, v, want)
				continue
			}
			drifted = append(drifted, name+" "+key)
			fmt.Fprintf(w, "benchcheck: FIDELITY-DRIFT %s %s: %g vs baseline %s\n", name, key, v, want)
		}
	}
	return drifted
}

// atPrecision reports whether v, printed with as many decimals as the
// plain-decimal baseline literal want, reads exactly want.
func atPrecision(v float64, want string) bool {
	decimals := 0
	if i := strings.IndexByte(want, '.'); i >= 0 {
		decimals = len(want) - i - 1
	}
	return strconv.FormatFloat(v, 'f', decimals, 64) == want
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
	var fid fidelityBaseline
	for _, dst := range []any{&base, &fid} {
		if err := json.Unmarshal(raw, dst); err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", *baselinePath, err)
			os.Exit(1)
		}
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
	metrics, err := parseMetrics(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	got := nsPerOp(metrics)
	if len(got) == 0 {
		fmt.Fprintln(os.Stderr, "benchcheck: no benchmark results in input")
		os.Exit(1)
	}
	failed := false
	if regressed := check(os.Stderr, base, got, *maxRegress); len(regressed) > 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: FAIL: %s regressed more than %.0f%%\n",
			strings.Join(regressed, ", "), 100**maxRegress)
		failed = true
	}
	if drifted := checkFidelity(os.Stderr, fid, metrics); len(drifted) > 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: FAIL: fidelity drift in %s\n", strings.Join(drifted, ", "))
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}
