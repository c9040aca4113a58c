package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sensornet/internal/dist"
	"sensornet/internal/engine"
	"sensornet/internal/experiments"
	"sensornet/internal/trace"
)

// distWorkers is the number of in-process workers: one per vCPU of a
// two-vCPU box, and the CLI's default -dist-shards.
const distWorkers = 2

// setupRepsDist is how many times a run fills the workers' caches.
const setupRepsDist = 5

// distCPUFloor is the least CPU over wall a run's timed campaigns may
// run at. Two workers and the coordinator keep them at about 1.7 on two
// vCPUs; a round trip that waits drops the figure below one busy vCPU.
const distCPUFloor = 1.0

// hostSampleEvery is how many campaigns run between two reference
// kernel samples: about one sample every half second.
const hostSampleEvery = 25

// distJobs is the dist workload's job set: the quick analytic surface
// (200 point jobs, under the coordinator's 256-per-second ingest
// burst) with seed-drawn constraints, in seed-shuffled order.
func distJobs(opt options) []engine.Job {
	rng := rand.New(rand.NewSource(opt.seed))
	pa := experiments.QuickAnalytic()
	pa.Constraints.Reach = math.Round(100*(0.6+0.2*rng.Float64())) / 100
	pa.Constraints.Budget = float64(30 + rng.Intn(11))
	jobs := experiments.SurfaceJobs(pa, false, 1)
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// readTree returns every file under dir by base name.
func readTree(dir string) (map[string][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	tree := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		tree[e.Name()] = b
	}
	return tree, nil
}

// sameTree reports whether dir holds exactly the files of want.
func sameTree(dir string, want map[string][]byte) error {
	got, err := readTree(dir)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	for name, b := range want {
		if !bytes.Equal(got[name], b) {
			return fmt.Errorf("entry %s differs from the local run", name)
		}
	}
	return nil
}

// timedTransport is the traced run's RoundTripper around one worker's
// client. It records a span per request, counts requests and bytes,
// and tracks the time the worker spends idle on a lease answer that
// carried no job.
type timedTransport struct {
	base  http.RoundTripper
	spans *spanLog

	mu        sync.Mutex
	requests  int
	bytes     int64
	idleSince time.Time
	idle      time.Duration
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	t.mu.Lock()
	if !t.idleSince.IsZero() {
		t.idle += start.Sub(t.idleSince)
		t.idleSince = time.Time{}
	}
	t.mu.Unlock()
	res, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		return nil, err
	}
	res.Body = io.NopCloser(bytes.NewReader(body))
	end := time.Now()
	t.spans.record("dist.rtt"+req.URL.Path, 0, start, end.Sub(start))

	t.mu.Lock()
	defer t.mu.Unlock()
	t.requests++
	t.bytes += req.ContentLength + int64(len(body))
	if req.URL.Path == dist.PathLease {
		var lease dist.LeaseResponse
		if json.Unmarshal(body, &lease) == nil && lease.Job == nil && !lease.Done && !lease.Draining {
			t.idleSince = end
		}
	}
	return res, nil
}

// stopIdle closes an open idle interval at now and reports whether the
// worker was idle, i.e. waiting out a retry hint.
func (t *timedTransport) stopIdle(now time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.idleSince.IsZero() {
		return false
	}
	t.idle += now.Sub(t.idleSince)
	t.idleSince = time.Time{}
	return true
}

// distRun is the dist workload's state: the job set, the workers'
// warm memory caches, and the local run's cache tree every campaign's
// sink must reproduce.
type distRun struct {
	opt    options
	jobs   []engine.Job
	caches []*engine.Cache
	// want is the local run's cache tree by file name, wantPayload the
	// payload of each of its entries by fingerprint.
	want        map[string][]byte
	wantPayload map[string][]byte
}

// recordingSink is the timed campaigns' result sink: the coordinator's
// ingest into an in-memory engine.Cache, with the exact payload bytes
// of every ingest kept for the correctness gate.
type recordingSink struct {
	*engine.Cache
	mu  sync.Mutex
	got map[string][]byte
}

func (s *recordingSink) IngestResult(fingerprint string, payload []byte) error {
	s.mu.Lock()
	s.got[fingerprint] = append([]byte(nil), payload...)
	s.mu.Unlock()
	return s.Cache.IngestResult(fingerprint, payload)
}

// check compares the ingested payloads with the local run's entries.
func (s *recordingSink) check(want map[string][]byte) error {
	if len(s.got) != len(want) {
		return fmt.Errorf("%d payloads ingested, want %d", len(s.got), len(want))
	}
	for fp, b := range want {
		if !bytes.Equal(s.got[fp], b) {
			return fmt.Errorf("payload of %s differs from the local run", fp)
		}
	}
	return nil
}

// fill runs the job set into a fresh memory cache, so every later
// lease against it is answered without computing.
func (d *distRun) fill(ctx context.Context) (*engine.Cache, error) {
	cache := engine.NewCache("", experiments.CacheSalt)
	_, err := workerEngine(cache).Run(ctx, d.jobs)
	return cache, err
}

// workerEngine is a worker's one-worker engine over its cache. Each
// campaign gets new engines over the same caches: an engine's span log
// only grows, and would tie the run's memory to its campaign count.
func workerEngine(cache *engine.Cache) *engine.Engine {
	return engine.New(engine.Config{Workers: 1, Cache: cache})
}

// campaignStats is what one traced campaign adds to the per-layer
// metrics.
type campaignStats struct {
	coord      dist.Stats
	reports    []*dist.WorkerReport
	transports []*timedTransport
	// leaseMs is each job's lease time, grant to accepted result, from
	// the coordinator's span log.
	leaseMs   []float64
	lingering int
}

// campaign runs the job set once through a fresh coordinator, sink
// and loopback server, timed from the workers' start to the
// coordinator's Done. Workers still waiting on an idle retry hint at
// Done are cancelled; they never extend the timed region. The sink is
// a disk cache in a fresh directory when onDisk is set, a
// recordingSink otherwise.
func (d *distRun) campaign(ctx context.Context, clock *phaseClock, spans *spanLog, onDisk bool) (elapsed, cpu time.Duration, st *campaignStats, err error) {
	var sinkDir string
	var mem *recordingSink
	var sink engine.ResultSink
	if onDisk {
		var err error
		if sinkDir, err = os.MkdirTemp(d.opt.workdir, "sink-"); err != nil {
			return 0, 0, nil, err
		}
		defer os.RemoveAll(sinkDir)
		sink = engine.NewCache(sinkDir, experiments.CacheSalt)
	} else {
		mem = &recordingSink{Cache: engine.NewCache("", experiments.CacheSalt), got: map[string][]byte{}}
		sink = mem
	}
	st = &campaignStats{}
	cfg := dist.Config{Sink: sink, Shards: distWorkers, Spans: &trace.SpanLog{}}
	coord, err := dist.NewCoordinator(cfg, d.jobs)
	if err != nil {
		return 0, 0, nil, err
	}
	srv := httptest.NewServer(coord)
	defer srv.Close()

	workers := make([]*dist.Worker, len(d.caches))
	for i, cache := range d.caches {
		var rt http.RoundTripper = http.DefaultTransport.(*http.Transport).Clone()
		if spans != nil {
			tt := &timedTransport{base: rt, spans: spans}
			st.transports = append(st.transports, tt)
			rt = tt
		}
		w, err := dist.NewWorker(dist.WorkerConfig{ID: fmt.Sprintf("w%d", i), BaseURL: srv.URL,
			Engine: workerEngine(cache), Jobs: d.jobs, Client: &http.Client{Timeout: 30 * time.Second, Transport: rt}})
		if err != nil {
			return 0, 0, nil, err
		}
		workers[i] = w
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type exit struct {
		rep *dist.WorkerReport
		err error
	}
	exits := make(chan exit, len(workers))
	var wg sync.WaitGroup
	var early []exit
	_, cpu, err = clock.time(func() error {
		start := time.Now()
		for _, w := range workers {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				rep, err := w.Run(wctx)
				exits <- exit{rep, err}
			}()
		}
		// Done closes when the last result is ingested. If every worker
		// exits first, the campaign cannot finish.
		for {
			select {
			case <-coord.Done():
				elapsed = time.Since(start)
				return nil
			case e := <-exits:
				early = append(early, e)
				if len(early) == len(workers) {
					select {
					case <-coord.Done():
						elapsed = time.Since(start)
						return nil
					default:
						return errors.New("every worker exited before the coordinator was done")
					}
				}
			}
		}
	})
	doneAt := time.Now()
	for _, tt := range st.transports {
		if tt.stopIdle(doneAt) {
			st.lingering++
		}
	}
	cancel()
	wg.Wait()
	close(exits)
	for e := range exits {
		early = append(early, e)
	}
	for _, e := range early {
		if e.err != nil && !errors.Is(e.err, context.Canceled) && err == nil {
			err = fmt.Errorf("worker: %w", e.err)
		}
		st.reports = append(st.reports, e.rep)
	}
	if err != nil {
		return 0, 0, nil, err
	}

	st.coord = coord.Stats()
	if st.coord.Ingested != len(d.jobs) || st.coord.Failed != 0 {
		return 0, 0, nil, fmt.Errorf("coordinator ingested %d of %d jobs, %d failed",
			st.coord.Ingested, len(d.jobs), st.coord.Failed)
	}
	if onDisk {
		if err := sameTree(sinkDir, d.want); err != nil {
			return 0, 0, nil, fmt.Errorf("sink cache: %w", err)
		}
	} else if err := mem.check(d.wantPayload); err != nil {
		return 0, 0, nil, fmt.Errorf("sink: %w", err)
	}
	for _, l := range cfg.Spans.Spans() {
		st.leaseMs = append(st.leaseMs, ms(l.Duration))
	}
	return elapsed, cpu, st, nil
}

// runDist is the dist workload: repeated campaigns of the same job set,
// each through a fresh coordinator, answered by two workers whose
// memory caches hold every result.
func runDist(ctx context.Context, opt options) (*outcome, error) {
	d := &distRun{opt: opt, jobs: distJobs(opt)}
	out := newOutcome()

	// The reference: a local run's disk cache.
	refDir, err := os.MkdirTemp(opt.workdir, "distref-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(refDir)
	ref := engine.New(engine.Config{Workers: 1, Cache: engine.NewCache(refDir, experiments.CacheSalt)})
	if _, err := ref.Run(ctx, d.jobs); err != nil {
		return nil, err
	}
	if d.want, err = readTree(refDir); err != nil {
		return nil, err
	}
	d.wantPayload = make(map[string][]byte, len(d.want))
	for name, b := range d.want {
		var env struct {
			Fingerprint string          `json:"fingerprint"`
			Payload     json.RawMessage `json:"payload"`
		}
		if err := json.Unmarshal(b, &env); err != nil {
			return nil, fmt.Errorf("local cache entry %s: %w", name, err)
		}
		d.wantPayload[env.Fingerprint] = env.Payload
	}

	// Set-up: fill each worker's memory cache; done setupRepsDist
	// times, the last set of caches is kept.
	var setups []float64
	var host hostSpeed
	for rep := 0; rep < setupRepsDist; rep++ {
		host.sample()
		start := time.Now()
		caches := make([]*engine.Cache, distWorkers)
		for i := range caches {
			if caches[i], err = d.fill(ctx); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(start).Seconds())
		d.caches = caches
	}

	var (
		clock        = phaseClock{floor: distCPUFloor}
		times        []float64
		cpus         []float64
		leaseP50     []float64
		leaseP99     []float64
		timesT       []float64
		timesU       []float64
		traced       []*campaignStats
		spans        *spanLog
		deadline     = time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
		minCampaigns = 1
	)
	if opt.trace {
		spans = &spanLog{}
		minCampaigns = 2
	}
	// One untimed campaign ingests into a disk sink, whose cache tree
	// must equal the local run's. The timed campaigns ingest into
	// memory: on a shared virtual disk the per-file cost of a disk sink
	// varies twenty-fold from minute to minute, and would set the time.
	out.attempted++
	if _, _, _, err := d.campaign(ctx, &phaseClock{}, nil, true); err != nil {
		out.fail("disk-sink campaign: %v", err)
	}
	for n := 0; n < minCampaigns || time.Now().Before(deadline); n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var sp *spanLog
		if opt.trace && n%2 == 1 {
			sp = spans
		}
		if n%hostSampleEvery == 0 {
			host.sample()
		}
		out.attempted++
		elapsed, cpu, st, err := d.campaign(ctx, &clock, sp, false)
		if err != nil {
			out.fail("campaign %d: %v", n, err)
			continue
		}
		times = append(times, elapsed.Seconds())
		cpus = append(cpus, cpu.Seconds())
		leaseP50 = append(leaseP50, median(st.leaseMs))
		leaseP99 = append(leaseP99, quantile(st.leaseMs, 0.99))
		switch {
		case sp != nil:
			timesT = append(timesT, elapsed.Seconds())
			traced = append(traced, st)
		case opt.trace:
			timesU = append(timesU, elapsed.Seconds())
		}
	}
	if len(times) == 0 {
		return nil, fmt.Errorf("no campaign completed (%d failures)", out.failed)
	}
	logf("dist: %d campaigns of %d jobs, median %.1fms, p99 %.1fms; per campaign, median lease %.3fms and lease p99 %.3fms, each the median over campaigns",
		len(times), len(d.jobs), 1000*median(times), 1000*quantile(times, 0.99), median(leaseP50), median(leaseP99))
	clock.check("dist campaigns", out)
	f := host.factor()
	logf("dist: reference kernel median %.2fms CPU over %d samples: host speed factor %.3f", median(host.samples), len(host.samples), f)

	logSetups("dist", setups)
	if !opt.trace {
		out.metrics["setup_s"] = median(setups) * f
		out.metrics["throughput_per_s"] = float64(len(d.jobs)) / (median(cpus) * f)
		out.metrics["latency_ms"] = median(leaseP50) * f
		return out, nil
	}

	m := out.metrics
	m["trace.overhead_pct"] = 100 * (median(timesT)/median(timesU) - 1)
	m["host.ref_ms"] = median(host.samples)
	m["dist.cpu_frac"] = clock.cpuFrac()
	m["dist.jobs_per_s"] = float64(len(d.jobs)) / median(times)
	m["dist.lease_p99_ms"] = median(leaseP99)
	m["dist.lease_rtt_us"] = medianOf(spans.durations("dist.rtt"+dist.PathLease), us)
	m["dist.result_rtt_us"] = medianOf(spans.durations("dist.rtt"+dist.PathResult), us)
	var requests, byteCount, completed, fromCache int
	var steals, backpressured, duplicates, idle, lingering, leaseMs []float64
	for _, st := range traced {
		for _, tt := range st.transports {
			requests += tt.requests
			byteCount += int(tt.bytes)
		}
		for _, rep := range st.reports {
			completed += rep.Completed
			fromCache += rep.FromCache
		}
		var idleSum time.Duration
		for _, tt := range st.transports {
			idleSum += tt.idle
		}
		leaseMs = append(leaseMs, st.leaseMs...)
		steals = append(steals, float64(st.coord.Steals))
		backpressured = append(backpressured, float64(st.coord.Backpressured))
		duplicates = append(duplicates, float64(st.coord.Duplicates))
		idle = append(idle, idleSum.Seconds())
		lingering = append(lingering, float64(st.lingering))
	}
	jobs := float64(len(d.jobs) * len(traced))
	m["dist.requests_per_job"] = float64(requests) / jobs
	m["dist.bytes_per_job"] = float64(byteCount) / jobs
	m["dist.lease_ms"] = median(leaseMs)
	m["dist.steals"] = mean(steals)
	m["dist.backpressured"] = mean(backpressured)
	m["dist.duplicates"] = mean(duplicates)
	m["dist.from_cache_frac"] = float64(fromCache) / float64(completed)
	m["dist.idle_wait_s"] = mean(idle)
	m["dist.lingering_workers"] = mean(lingering)
	ingest, err := d.ingestProbe(ctx)
	if err != nil {
		return nil, err
	}
	m["cache.ingest_us"] = ingest
	return out, nil
}

// ingestProbe times the coordinator's sink write: each of the job
// set's encoded results ingested into a fresh disk cache.
func (d *distRun) ingestProbe(ctx context.Context) (float64, error) {
	results, err := workerEngine(d.caches[0]).Run(ctx, d.jobs)
	if err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(d.opt.workdir, "ingest-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	sink := engine.NewCache(dir, experiments.CacheSalt)
	var ds []time.Duration
	for i, j := range d.jobs {
		payload, err := engine.EncodeResult(j, results[i].Value)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := sink.IngestResult(j.Fingerprint(), payload); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start))
	}
	return medianOf(ds, us), nil
}
