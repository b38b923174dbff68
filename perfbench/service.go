package main

// service-jobs: an in-process perfcloned. Each pass starts a fresh
// daemon (data dir, store, WAL job queue, HTTP server on loopback, nproc
// workers) and drives it with a closed loop of nproc clients: a client
// submits its next job only after it has fetched the previous job's
// artifact. Job latency runs from submit to artifact fetched, observed by
// polling GET /v1/jobs/{id} every pollInterval.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"perfclone/internal/codegen"
	"perfclone/internal/controlapi"
	"perfclone/internal/experiments"
	"perfclone/internal/fidelity"
	"perfclone/internal/jobqueue"
	"perfclone/internal/profile"
	"perfclone/internal/store"
	"perfclone/internal/supervise"
	"perfclone/internal/synth"
	"perfclone/internal/workloads"
)

// pollInterval is well below a job's median latency (tens of ms) and
// far below the 100 ms tick of the /events stream, which would quantise
// latencies.
const pollInterval = 2 * time.Millisecond

// daemonQuota is perfcloned's default per-tenant live-job quota.
const daemonQuota = 8

// experimentInsts is the reduced timing budget of the experiment jobs.
const experimentInsts = 200_000

// experimentKernels are the experiment jobs' workloads. They are fixed,
// not drawn from the seed, so every seed's job list costs the same; the
// second and third experiment job read the first one's stored traces.
var experimentKernels = []string{"crc32", "qsort"}

type jobSpec struct {
	Tenant string        `json:"tenant"`
	Spec   jobqueue.Spec `json:"spec"`
}

// jobList is a pass's work, made from the workload seed: per kernel two
// profile jobs and three fidelity-gated clone jobs (two share a seed, so
// the repeat must render the same bytes), plus one fig4, fig6and7 and
// table3 job on experimentKernels. Clone seeds, tenants and order come
// from the seed, except that each kernel's first job is a profile job:
// which kind touches a kernel first decides whether a clone job pays for
// profiling, so leaving it to the shuffle would move p90 from seed to seed.
func jobList(seed uint64) []jobSpec {
	rng := rand.New(rand.NewSource(int64(splitmix64(seed))))
	names := workloads.Names()
	tenant := func() string { return "tenant-" + strconv.Itoa(rng.Intn(4)) }
	var jobs []jobSpec
	for _, name := range names {
		s1, s2 := 1+uint64(rng.Int63()), 1+uint64(rng.Int63())
		for _, sp := range []jobqueue.Spec{
			{Kind: jobqueue.KindProfile, Workload: name},
			{Kind: jobqueue.KindProfile, Workload: name},
			{Kind: jobqueue.KindClone, Workload: name, Seed: s1, Validate: true},
			{Kind: jobqueue.KindClone, Workload: name, Seed: s1, Validate: true},
			{Kind: jobqueue.KindClone, Workload: name, Seed: s2, Validate: true},
		} {
			jobs = append(jobs, jobSpec{Tenant: tenant(), Spec: sp})
		}
	}
	for _, run := range []string{"fig4", "fig6and7", "table3"} {
		jobs = append(jobs, jobSpec{Tenant: tenant(), Spec: jobqueue.Spec{
			Kind: jobqueue.KindExperiment, Run: run, Workloads: experimentKernels, Insts: experimentInsts,
		}})
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	first := map[string]int{}
	for i, js := range jobs {
		w := js.Spec.Workload
		if _, seen := first[w]; !seen && w != "" {
			first[w] = i
		}
		if js.Spec.Kind == jobqueue.KindProfile && first[w] >= 0 {
			jobs[first[w]], jobs[i] = jobs[i], jobs[first[w]]
			first[w] = -1 // this kernel's first job is now a profile job
		}
	}
	return jobs
}

type daemon struct {
	dir   string
	st    *store.Store
	queue *jobqueue.Queue
	srv   *controlapi.Server
	super *supervise.Supervisor
	hs    *http.Server
	url   string
	cl    *http.Client
	serve chan error
}

// startDaemon wires the daemon as cmd/perfcloned does and waits until it
// answers its health check.
func startDaemon(dir string, workers int) (*daemon, error) {
	d := &daemon{dir: dir, serve: make(chan error, 1)}
	var err error
	if d.st, err = store.Open(filepath.Join(dir, "store")); err != nil {
		return nil, err
	}
	if d.queue, err = jobqueue.Open(filepath.Join(dir, "wal", "jobs.jsonl"), jobqueue.Options{Quota: daemonQuota}); err != nil {
		return nil, err
	}
	d.super = supervise.New(supervise.Options{Log: os.Stderr})
	d.srv = controlapi.New(controlapi.Config{
		Queue: d.queue, Store: d.st, DataDir: dir, Workers: workers, Supervisor: d.super,
		// Fidelity reports are long; a failed job carries its error in its state.
		Log: io.Discard,
	})
	d.srv.Start(context.Background())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Drain()
		return nil, errors.Join(err, d.queue.Close())
	}
	d.url = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.serve <- d.hs.Serve(ln) }()
	// One keep-alive connection per client.
	d.cl = &http.Client{Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}}
	resp, err := d.cl.Get(d.url + "/v1/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		return nil, errors.Join(err, d.stop())
	}
	return d, nil
}

// stop shuts the daemon down as perfcloned's drain does and waits for
// its server goroutine and workers to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.serve; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	d.srv.Drain()
	d.cl.CloseIdleConnections()
	return errors.Join(err, d.queue.Close(), os.RemoveAll(d.dir))
}

func setupService(b *bench) (func(*tracer) error, func() error, error) {
	dir, err := os.MkdirTemp(b.dir, "daemon-")
	if err != nil {
		return nil, nil, err
	}
	d, err := startDaemon(dir, b.workers)
	if err != nil {
		return nil, nil, err
	}
	return func(tr *tracer) error { return servicePass(b, tr, d) }, d.stop, nil
}

// jobResult is what one client saw of one job.
type jobResult struct {
	spec                  jobSpec
	ok                    bool
	refused               int
	latency, wait, runFor time.Duration
	submit, artifact      time.Duration
	polls                 []time.Duration
	digest                [sha256.Size]byte
	body                  []byte
}

func servicePass(b *bench, tr *tracer, d *daemon) error {
	jobs := jobList(b.seed)
	start := time.Now()
	results := make([]jobResult, len(jobs))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < b.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(jobs) {
					return
				}
				results[i] = runJob(d, tr, jobs[i], i)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	var submits, pollsAll, artifacts, waits, runs, lat []time.Duration
	var rejected float64
	for _, r := range results {
		rejected += float64(r.refused)
		for k := 0; k < r.refused; k++ {
			b.tally.fail()
		}
		if !r.ok {
			b.tally.fail()
			continue
		}
		b.tally.ok()
		lat = append(lat, r.latency)
		submits = append(submits, r.submit)
		artifacts = append(artifacts, r.artifact)
		pollsAll = append(pollsAll, r.polls...)
		waits = append(waits, r.wait)
		runs = append(runs, r.runFor)
	}
	if tr == nil {
		b.opLat = append(b.opLat, lat...)
		b.set("jobs_per_s", float64(len(lat))/wall.Seconds())
		b.set("job_ms_p50", percentile(millis(lat), 50))
		b.set("job_ms_p90", percentile(millis(lat), 90))
	}
	perJob := make([]map[string]any, len(results))
	for i, r := range results {
		perJob[i] = map[string]any{
			"kind": r.spec.Spec.Kind, "workload": r.spec.Spec.Workload, "ok": r.ok, "refused": r.refused,
			"latency_ms": ms(r.latency), "wait_ms": ms(r.wait), "run_ms": ms(r.runFor), "polls": len(r.polls),
		}
	}
	b.raw[fmt.Sprintf("jobs_pass%d_traced%v", len(b.raw), tr != nil)] = perJob
	b.set("controlapi.submit_ms_p50", median(millis(submits)))
	b.set("controlapi.poll_ms_p50", median(millis(pollsAll)))
	b.set("controlapi.artifact_ms_p50", median(millis(artifacts)))
	b.set("controlapi.rejected", rejected)
	b.set("jobqueue.wait_ms_p50", median(millis(waits)))
	b.set("jobqueue.run_ms_p50", median(millis(runs)))
	if info, err := os.Stat(filepath.Join(d.dir, "wal", "jobs.jsonl")); err == nil {
		b.set("jobqueue.wal_bytes_per_job", float64(info.Size())/float64(len(jobs)))
	}
	b.set("supervise.retried", float64(d.super.Counts().Retried))
	sc := d.st.Counters()
	if lookups := sc.TraceHits + sc.TraceMisses + sc.ProfileHits + sc.ProfileMisses; lookups > 0 {
		b.set("store.hit_ratio", float64(sc.TraceHits+sc.ProfileHits)/float64(lookups))
	}
	b.set("store.quarantined", float64(sc.Quarantined))
	if tr != nil {
		b.set("trace.workers", float64(b.workers))
	}
	b.later(func() { checkArtifacts(b, results) })
	return nil
}

// runJob submits one job, polls it to a terminal state and fetches its
// artifact, retrying a refused submission after the daemon's Retry-After.
func runJob(d *daemon, tr *tracer, js jobSpec, i int) jobResult {
	res := jobResult{spec: js}
	key := "job-" + strconv.Itoa(i)
	root := tr.begin("job", key, 0)
	defer tr.end(root)
	body, _ := json.Marshal(js) // a jobSpec always marshals
	start := time.Now()
	var job jobqueue.Job
	for {
		t0 := time.Now()
		var status int
		var retry time.Duration
		err := tr.do("controlapi.submit", key, root, func() error {
			resp, err := d.cl.Post(d.url+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			status = resp.StatusCode
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
				retry = time.Duration(s) * time.Second
			}
			return json.NewDecoder(resp.Body).Decode(&job)
		})
		res.submit = time.Since(t0)
		if err == nil && status == http.StatusAccepted {
			break
		}
		if status == http.StatusTooManyRequests || status >= 500 {
			res.refused++
			if res.refused < 5 {
				time.Sleep(max(retry, pollInterval))
				continue
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: submit %s: status %d, %v\n", key, status, err)
		return res
	}
	submitted := time.Now()

	// The job's time in the daemon is spanned as the queue wait until a
	// poll sees it leave pending, then its run until a poll sees it end.
	// The polls are children of those spans.
	var started time.Time
	phase := tr.begin("jobqueue.wait", key, root)
	for !job.State.Terminal() {
		time.Sleep(pollInterval)
		t0 := time.Now()
		err := tr.do("controlapi.poll", key, phase, func() error {
			resp, err := d.cl.Get(d.url + "/v1/jobs/" + job.ID)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("status %s", resp.Status)
			}
			return json.NewDecoder(resp.Body).Decode(&job)
		})
		res.polls = append(res.polls, time.Since(t0))
		if err != nil {
			tr.end(phase)
			fmt.Fprintf(os.Stderr, "perfbench: poll %s: %v\n", key, err)
			return res
		}
		if started.IsZero() && job.State != jobqueue.StatePending {
			started = time.Now()
			tr.end(phase)
			phase = tr.begin("jobqueue.run", key, root)
		}
	}
	tr.end(phase)
	res.wait = started.Sub(submitted)
	if job.State != jobqueue.StateDone {
		fmt.Fprintf(os.Stderr, "perfbench: job %s (%s) ended %s: %s\n", key, job.Spec.Kind, job.State, job.Error)
		return res
	}
	res.runFor = time.Since(started)

	t0 := time.Now()
	err := tr.do("controlapi.artifact", key, root, func() error {
		resp, err := d.cl.Get(d.url + "/v1/jobs/" + job.ID + "/artifact")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		res.body, err = io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %s", resp.Status)
		}
		return err
	})
	res.artifact = time.Since(t0)
	res.latency = time.Since(start)
	if err != nil || len(res.body) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: artifact %s: %d bytes, %v\n", key, len(res.body), err)
		return res
	}
	res.ok = true
	res.digest = sha256.Sum256(res.body)
	return res
}

// checkArtifacts requires every job done with a non-empty artifact,
// equal artifacts for equal specs, and, for one job of each kind, the
// bytes an in-process rendering of the same spec produces.
func checkArtifacts(b *bench, results []jobResult) {
	bySpec := map[string][sha256.Size]byte{}
	checked := map[jobqueue.Kind]bool{}
	for i := range results {
		r := &results[i]
		b.check(r.ok, "job %d (%s %s) did not finish done with an artifact", i, r.spec.Spec.Kind, r.spec.Spec.Workload)
		if !r.ok {
			continue
		}
		key, _ := json.Marshal(r.spec.Spec)
		if prev, seen := bySpec[string(key)]; seen {
			b.check(prev == r.digest, "two jobs of spec %s returned different artifacts", key)
		}
		bySpec[string(key)] = r.digest
		if checked[r.spec.Spec.Kind] {
			r.body = nil
			continue
		}
		checked[r.spec.Spec.Kind] = true
		want, err := renderInProcess(r.spec.Spec)
		b.check(err == nil && bytes.Equal(want, r.body), "%s job %s: artifact differs from the in-process rendering (err %v)", r.spec.Spec.Kind, key, err)
		r.body = nil
	}
	b.check(len(checked) == 3, "only %d job kinds finished", len(checked))
}

// renderInProcess renders spec through the public calls the daemon's
// executor makes, without the daemon, its queue or its store.
func renderInProcess(sp jobqueue.Spec) ([]byte, error) {
	ctx := context.Background()
	var out bytes.Buffer
	if sp.Kind == jobqueue.KindExperiment {
		opts := experiments.Options{Workloads: sp.Workloads, TimingInsts: sp.Insts, Log: os.Stderr}
		pairs, err := experiments.PrepareContext(ctx, opts)
		if err != nil {
			return nil, err
		}
		switch sp.Run {
		case "fig4":
			rows, err := experiments.Fig4Context(ctx, pairs, opts)
			if err != nil {
				return nil, err
			}
			experiments.PrintFig4(&out, rows)
		case "fig6and7":
			rows, err := experiments.Fig6and7Context(ctx, pairs, opts)
			if err != nil {
				return nil, err
			}
			experiments.PrintFig6and7(&out, rows)
		case "table3":
			_, sums, err := experiments.Table3Context(ctx, pairs, opts)
			if err != nil {
				return nil, err
			}
			experiments.PrintTable3(&out, sums)
		default:
			return nil, fmt.Errorf("no in-process rendering for run %q", sp.Run)
		}
		return out.Bytes(), nil
	}
	w, err := workloads.ByName(sp.Workload)
	if err != nil {
		return nil, err
	}
	prof, err := profile.CollectContext(ctx, w.Build(), profile.Options{MaxInsts: profileInsts})
	if err != nil {
		return nil, err
	}
	if sp.Kind == jobqueue.KindProfile {
		err := prof.Save(&out)
		return out.Bytes(), err
	}
	clone, _, err := fidelity.GenerateContext(ctx, prof, synth.Config{Seed: sp.Seed}, fidelity.Options{})
	if err != nil {
		return nil, err
	}
	src, err := codegen.EmitC(clone.Program, codegen.Options{FuncName: sp.Workload + "_clone"})
	return []byte(src), err
}
