// Command perfbench is perfclone's end-to-end benchmark. It drives the
// program in-process through its public packages on one of three
// workloads, checks the outputs, and prints one JSON result line:
// end-to-end metrics from untraced passes (-trace 0), or per-layer
// metrics from a run that adds a traced pass (-trace 1). README.md beside
// this file explains the workloads and what each metric should move.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload clone-validate --seed 7 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outDir holds stores, data dirs and result files; the build script
// keeps its binary and Go caches under the same ignored directory.
const outDir = ".bench_build/perfbench"

// setupRound is how many set-ups a run times before each untraced pass;
// the reported setup_s is the median of all of them.
const setupRound = 11

// setupFunc builds what a pass of one workload needs (dirs, stores,
// daemon, programs) and returns the pass and the teardown that releases it.
type setupFunc func(b *bench) (pass func(tr *tracer) error, teardown func() error, err error)

var workloadsByName = map[string]setupFunc{
	"paper-figures":  setupPaper,
	"clone-validate": setupClone,
	"service-jobs":   setupService,
}

// bench is one run's state, shared by the workload code.
type bench struct {
	name    string
	seed    uint64
	dir     string // this run's scratch directory
	workers int

	tally    tally
	opLat    []time.Duration // one per finished operation, untraced passes only
	problems []string        // failed output checks
	deferred []func()        // output checks to run after the pass's wall is taken
	layer    map[string]float64
	raw      map[string]any // raw samples written to the result file
	spans    []span
}

// check records a failed output check; the run then reports correct=false.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		if len(b.problems) < 50 {
			b.problems = append(b.problems, msg)
		}
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", msg)
	}
}

// later queues an output check that must stay out of the pass's timing.
func (b *bench) later(fn func()) { b.deferred = append(b.deferred, fn) }

// set records a per-layer metric.
func (b *bench) set(name string, v float64) { b.layer[name] = v }

func main() {
	name := flag.String("workload", "", "workload: paper-figures, clone-validate or service-jobs")
	seed := flag.Uint64("seed", 1, "workload seed")
	secs := flag.Int("seconds", 10, "how long the untraced passes measure, at least one pass")
	traced := flag.Int("trace", 0, "1 = report per-layer metrics from an extra traced pass")
	flag.Parse()
	setup, ok := workloadsByName[*name]
	if !ok || *secs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper-figures|clone-validate|service-jobs --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := run(setup, *name, *seed, time.Duration(*secs)*time.Second, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(setup setupFunc, name string, seed uint64, budget time.Duration, traced bool) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	b := &bench{
		name: name, seed: seed, workers: runtime.NumCPU(),
		layer: map[string]float64{}, raw: map[string]any{},
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b.dir, err = os.MkdirTemp(outDir, fmt.Sprintf("%s-seed%d-", name, seed))
	if err != nil {
		return err
	}
	defer os.RemoveAll(b.dir)

	// Set-ups are timed in rounds before each untraced pass, so that
	// their median spans the run as the passes do and not one moment of
	// a host whose load comes and goes. Every set-up starts from the same
	// state: the garbage of the last set-up or pass collected, and the
	// dirty data it and its teardown left written back, so that the
	// daemon start's fsyncs flush only its own writes.
	var setups, passes []time.Duration
	timeSetups := func() error {
		for i := 0; i < setupRound; i++ {
			runtime.GC()
			syscall.Sync()
			start := time.Now()
			_, teardown, err := setup(b)
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, time.Since(start))
			if err := teardown(); err != nil {
				return err
			}
		}
		return nil
	}
	var passLo, passHi int64 // the traced pass's interval on the tracer clock
	once := func(tr *tracer) (time.Duration, float64, error) {
		pass, teardown, err := setup(b)
		if err != nil {
			return 0, 0, fmt.Errorf("setup: %w", err)
		}
		start := time.Now()
		if tr != nil {
			passLo = tr.now()
		}
		err = pass(tr)
		wall := time.Since(start)
		if tr != nil {
			passHi = tr.now()
		}
		peak, perr := peakRSSMB() // before the output checks, which are not the workload
		for _, fn := range b.deferred {
			fn()
		}
		b.deferred = nil
		return wall, peak, errors.Join(err, perr, teardown())
	}

	// Untraced passes measure the end-to-end metrics: whole passes until
	// the budget is spent, at least one.
	var rss float64
	for len(passes) == 0 || (!traced && sum(passes) < budget) {
		if err := timeSetups(); err != nil {
			return err
		}
		if len(passes) == 0 {
			// max_rss_mb is the first pass's peak, its own set-up
			// included: comparable whatever the number of passes the
			// budget allowed, and free of what earlier passes left
			// behind (README.md describes the service-jobs leak).
			if err := resetPeakRSS(); err != nil {
				return err
			}
		}
		wall, peak, err := once(nil)
		if err != nil {
			return err
		}
		passes = append(passes, wall)
		if len(passes) == 1 {
			rss = peak
		}
	}
	if traced {
		tr := newTracer()
		wall, _, err := once(tr)
		if err != nil {
			return err
		}
		b.spans = tr.snapshot()
		// Every workload's traced pass records the goroutines it ran
		// layer calls on as trace.workers.
		b.set("trace.unattributed_share", unattributed(b.spans, passLo, passHi, int(b.layer["trace.workers"])))
		b.set("trace.overhead_share", wall.Seconds()/passes[0].Seconds()-1)
	}
	if p, ok := tailPercentile(len(b.opLat)); !ok || p < 90 {
		b.check(false, "%d operations are too few for a p90 with ten samples beyond it", len(b.opLat))
	}
	lat := millis(b.opLat)
	e2e := map[string]float64{
		"setup_s":    median(seconds(setups)),
		"run_s":      median(seconds(passes)),
		"ops_per_s":  float64(len(b.opLat)) / sum(passes).Seconds(),
		"op_ms_p50":  percentile(lat, 50),
		"op_ms_p90":  percentile(lat, 90),
		"ok_share":   1 - b.tally.failedShare(),
		"max_rss_mb": rss,
	}
	b.set("failed_share", b.tally.failedShare())
	for _, s := range selfTimesSorted(b.spans) {
		fmt.Fprintf(os.Stderr, "perfbench: self %-24s %9.3f s\n", s.name, s.self.Seconds())
	}

	metrics := e2e
	want := spec.EndToEnd
	if traced {
		metrics, want = b.layer, spec.PerLayer
	}
	out := result{Correct: len(b.problems) == 0, Attempted: b.tally.attempted, Failed: b.tally.failed, Metrics: map[string]metricValue{}}
	for _, m := range want {
		v, ok := metrics[m.Name]
		switch {
		case !ok && !traced:
			return fmt.Errorf("workload %s does not measure end-to-end metric %s", name, m.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Errorf("metric %s is not finite (%v)", m.Name, v)
		}
		// A per-layer metric the workload does not measure reads 0: the
		// workload bypasses that layer.
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for k := range metrics {
		if _, ok := out.Metrics[k]; !ok {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", k)
		}
	}
	if out.Attempted < 1 {
		return errors.New("no operation was attempted")
	}

	if err := writeRecord(b, traced, setups, passes, e2e, out); err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metric names and units are declared there once.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

type selfTime struct {
	name string
	self time.Duration
}

func selfTimesSorted(spans []span) []selfTime {
	var out []selfTime
	for n, d := range selfTimes(spans) {
		out = append(out, selfTime{n, d})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// writeRecord saves the run's ledger entry beside its result: host
// fingerprint, raw samples, per-layer self times and every span.
func writeRecord(b *bench, traced bool, setups, passes []time.Duration, e2e map[string]float64, out result) error {
	self := map[string]float64{}
	for n, d := range selfTimes(b.spans) {
		self[n] = d.Seconds()
	}
	rec := map[string]any{
		"workload": b.name,
		"seed":     b.seed,
		"traced":   traced,
		"host":     hostFingerprint(),
		"result":   out,
		"samples": map[string]any{
			"setup_s":   seconds(setups),
			"pass_s":    seconds(passes),
			"op_ms":     millis(b.opLat),
			"end2end":   e2e,
			"per_layer": b.layer,
			"raw":       b.raw,
		},
		"problems": b.problems,
		"self_s":   self,
		"spans":    b.spans,
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%v.json", b.name, b.seed, traced))
	fmt.Fprintln(os.Stderr, "perfbench: record", path)
	return os.WriteFile(path, data, 0o644)
}

// hostFingerprint identifies the machine and the code measured.
func hostFingerprint() map[string]any {
	h := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
		"commit":     "unknown (not built from a git checkout)",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h["commit"] = s.Value
			case "vcs.modified":
				h["commit_modified"] = s.Value
			}
		}
	}
	return h
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resetPeakRSS restarts the process's resident high-water mark, which
// writing 5 to clear_refs does on Linux 4.0 and later.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident high-water mark since the last
// resetPeakRSS, in MiB.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kib / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
