package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	"sensornet/internal/engine"
	"sensornet/internal/experiments"
	"sensornet/internal/mathx"
	"sensornet/internal/optimize"
	"sensornet/internal/serve"
)

const (
	// openRate is the open loop's fixed request rate, about a third of
	// what two closed-loop connections reach on a two-vCPU box.
	openRate = 8000
	// tinyOpenRate replaces it at smoke-test size.
	tinyOpenRate = 500
	// closedShare and readShare are the parts of -seconds the closed
	// loop and the read-only open loop get; the open loop with
	// refreshes runs for the rest.
	closedShare = 0.5
	readShare   = 0.25
	// conditionalShare is the part of the mix sent with If-None-Match.
	// It is assumed, not measured: no recorded traffic gives it.
	conditionalShare = 0.2
	// setupRepsServe is how many times a run starts a server.
	setupRepsServe = 5
	// serveCPUFloor is the least CPU over wall a run's closed-loop
	// segments may run at. Client and server share the process, so each
	// connection keeps about one vCPU busy and a segment runs at about
	// 1.75 on two; a read path that waits drops it below 1.
	serveCPUFloor = 1.0
	// idleRefreshes is how many refreshes the idle server gets before
	// each closed-loop segment.
	idleRefreshes = 5
	// seqHeader carries a traced request's id from the client to the
	// handler wrapper, so the two spans can be joined.
	seqHeader = "X-Bench-Seq"
)

// query is one request of the mix with the answer a direct ServeHTTP
// call gave for it.
type query struct {
	class       string // optimal, surface_row, surface_full, shootout
	path        string
	conditional bool // sent with If-None-Match: expect 304, empty body
	body        []byte
	etag        string
}

// serveInputs is the serve workload's input: the quick presets with
// seed-drawn constraints and a seeded simulated preset.
func serveInputs(opt options) (pa, ps experiments.Preset) {
	rng := rand.New(rand.NewSource(opt.seed))
	pa, ps = experiments.QuickAnalytic(), experiments.QuickSim()
	pa.Constraints.Reach = math.Round(100*(0.6+0.2*rng.Float64())) / 100
	ps.Constraints.Reach = math.Round(100*(0.55+0.2*rng.Float64())) / 100
	ps.Seed = opt.seed
	if opt.tiny {
		pa.Rhos = []float64{20, 60}
		pa.Grid = mathx.Range(0.1, 1, 0.1)
		ps.Rhos = []float64{20, 60}
		ps.Grid = mathx.Range(0.25, 1, 0.25)
		ps.Runs = 1
	}
	return pa, ps
}

// servePayloads computes every result the server reads — both
// surfaces and the shootout — and returns them encoded, in job order.
func servePayloads(ctx context.Context, pa, ps experiments.Preset) ([]engine.Job, [][]byte, error) {
	workers := runtime.NumCPU()
	jobs := experiments.SurfaceJobs(pa, false, 1)
	jobs = append(jobs, experiments.SurfaceJobs(ps, true, 1)...)
	shoot, err := experiments.ShootoutJobs(ps, nil)
	if err != nil {
		return nil, nil, err
	}
	jobs = append(jobs, shoot...)
	eng := engine.New(engine.Config{Workers: workers, Cache: engine.NewCache("", experiments.CacheSalt)})
	results, err := eng.Run(ctx, jobs)
	if err != nil {
		return nil, nil, err
	}
	payloads := make([][]byte, len(jobs))
	for i, j := range jobs {
		if payloads[i], err = engine.EncodeResult(j, results[i].Value); err != nil {
			return nil, nil, err
		}
	}
	return jobs, payloads, nil
}

// serveStack is one started server: a cache-only engine over a memory
// cache, the serve.Server warmed over it, and a loopback listener.
type serveStack struct {
	cache *engine.Cache
	eng   *engine.Engine
	srv   *serve.Server
	ts    *httptest.Server
	warm  time.Duration
}

// startServe is the workload's set-up: fill a memory cache with the
// payloads, build and warm the server, and start its listener.
func startServe(ctx context.Context, pa, ps experiments.Preset, jobs []engine.Job,
	payloads [][]byte, wrap func(http.Handler) http.Handler) (*serveStack, error) {

	st := &serveStack{cache: engine.NewCache("", experiments.CacheSalt)}
	for i, j := range jobs {
		if err := st.cache.IngestResult(j.Fingerprint(), payloads[i]); err != nil {
			return nil, err
		}
	}
	st.eng = engine.New(engine.Config{Workers: 1, Cache: st.cache, CacheOnly: true})
	var err error
	if st.srv, err = serve.NewCtx(ctx, st.eng, pa, ps); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := st.srv.Warm(ctx); err != nil {
		return nil, err
	}
	st.warm = time.Since(start)
	st.ts = httptest.NewServer(wrap(st.srv))
	return st, nil
}

// queryMix builds the request mix the way cmd/loadgen does — every
// optimal (surface, metric, rho) tuple, every surface row and each full
// surface — plus the shootout in full, per model and per cell. It asks
// the server directly for each path and keeps those it answers 200 (an
// optimum infeasible at a density is a 404), then draws a seeded
// sequence of n requests uniformly from them. A conditionalShare of the
// requests carry If-None-Match with the path's ETag.
func queryMix(srv http.Handler, pa, ps experiments.Preset, seed int64, n int) ([]query, error) {
	var cands []query
	add := func(class, path string) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code == http.StatusOK {
			cands = append(cands, query{class: class, path: path,
				body: rec.Body.Bytes(), etag: rec.Header().Get("ETag")})
		}
	}
	for _, s := range []struct {
		name string
		pre  experiments.Preset
	}{{"analytic", pa}, {"sim", ps}} {
		for _, sel := range optimize.Selectors() {
			for _, rho := range s.pre.Rhos {
				add("optimal", fmt.Sprintf("/api/optimal?surface=%s&metric=%s&rho=%g", s.name, sel.Name, rho))
			}
		}
		for _, rho := range s.pre.Rhos {
			add("surface_row", fmt.Sprintf("/api/surface?surface=%s&rho=%g", s.name, rho))
		}
		add("surface_full", "/api/surface?surface="+s.name)
	}
	add("shootout", "/api/shootout")
	for _, m := range experiments.ShootoutModels() {
		add("shootout", "/api/shootout?model="+m.String())
		for _, rho := range experiments.DefaultShootoutRhos() {
			add("shootout", fmt.Sprintf("/api/shootout?model=%s&rho=%g", m, rho))
		}
	}
	classes := map[string]bool{}
	for _, q := range cands {
		if q.etag == "" {
			return nil, fmt.Errorf("%s answered 200 without an ETag", q.path)
		}
		classes[q.class] = true
	}
	for _, class := range serveClasses {
		if !classes[class] {
			return nil, fmt.Errorf("no %s query answers 200", class)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	mix := make([]query, n)
	bodyBytes := 0
	for i := range mix {
		mix[i] = cands[rng.Intn(len(cands))]
		mix[i].conditional = rng.Float64() < conditionalShare
		if !mix[i].conditional {
			bodyBytes += len(mix[i].body)
		}
	}
	logf("serve: %d paths answer 200; the mix draws %d requests from them, %.0f body bytes per request",
		len(cands), n, float64(bodyBytes)/float64(n))
	return mix, nil
}

// serveClasses are the read classes of the mix, each timed on its own.
var serveClasses = []string{"optimal", "surface_row", "surface_full", "shootout"}

// client is one load-generator connection.
type client struct {
	base  string
	http  *http.Client
	spans *spanLog
	seq   *int64 // shared id counter when traced
	mu    *sync.Mutex
	buf   bytes.Buffer
}

func newClient(base string) *client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = 1
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// nextID returns a fresh request id, or 0 when untraced.
func (c *client) nextID() int64 {
	if c.spans == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	*c.seq++
	return *c.seq
}

// do sends one request and checks its answer against the reference.
// It returns the response body size.
func (c *client) do(ctx context.Context, q query) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+q.path, nil)
	if err != nil {
		return 0, err
	}
	if q.conditional {
		req.Header.Set("If-None-Match", q.etag)
	}
	id := c.nextID()
	if id != 0 {
		req.Header.Set(seqHeader, strconv.FormatInt(id, 10))
	}
	start := time.Now()
	res, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(res.Body)
	res.Body.Close()
	if err != nil {
		return 0, err
	}
	c.spans.record("serve.client."+q.class, id, start, time.Since(start))
	if q.conditional {
		if res.StatusCode != http.StatusNotModified || c.buf.Len() != 0 {
			return 0, fmt.Errorf("%s with If-None-Match: status %d, %d body bytes; want 304, empty", q.path, res.StatusCode, c.buf.Len())
		}
		return 0, nil
	}
	if res.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s: status %d", q.path, res.StatusCode)
	}
	if !bytes.Equal(c.buf.Bytes(), q.body) {
		return 0, fmt.Errorf("%s: body differs from the direct ServeHTTP answer", q.path)
	}
	return c.buf.Len(), nil
}

// refresh posts one /api/refresh and returns its latency.
func (c *client) refresh(ctx context.Context) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/api/refresh", nil)
	if err != nil {
		return 0, err
	}
	id := c.nextID()
	if id != 0 {
		req.Header.Set(seqHeader, strconv.FormatInt(id, 10))
	}
	start := time.Now()
	res, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, res.Body)
	res.Body.Close()
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	c.spans.record("serve.client.refresh", id, start, d)
	if res.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("refresh: status %d", res.StatusCode)
	}
	return d, nil
}

// timedHandler is the traced run's wrapper around Server.ServeHTTP: it
// records the handler time of every request that carries an id.
type timedHandler struct {
	h     http.Handler
	spans *spanLog
}

func (t timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.Header.Get(seqHeader), 10, 64)
	if err != nil {
		t.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.h.ServeHTTP(w, r)
	t.spans.record("serve.handler", id, start, time.Since(start))
}

// loadStats counts one loop's requests.
type loadStats struct {
	requests, notModified, bytes int
}

// closedLoop runs len(clients) connections back to back over the mix
// for d as one phase of clock, and returns the completed requests per
// wall second and per CPU second of the process. Failed requests are
// counted against the outcome.
func closedLoop(ctx context.Context, clock *phaseClock, clients []*client, mix []query, d time.Duration, out *outcome) (qps, perCPU float64, total loadStats) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	for g, c := range clients {
		g, c := g, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st loadStats
			var failed []error
			for i := g * len(mix) / len(clients); time.Now().Before(deadline); i++ {
				q := mix[i%len(mix)]
				n, err := c.do(ctx, q)
				st.requests++
				if err != nil {
					failed = append(failed, err)
					continue
				}
				st.bytes += n
				if q.conditional {
					st.notModified++
				}
			}
			mu.Lock()
			defer mu.Unlock()
			total.requests += st.requests
			total.notModified += st.notModified
			total.bytes += st.bytes
			out.attempted += st.requests
			for _, err := range failed {
				out.fail("closed loop: %v", err)
			}
		}()
	}
	wg.Wait()
	wall, cpu := clock.record(start, cpu0)
	n := float64(total.requests)
	return n / wall.Seconds(), n / cpu.Seconds(), total
}

// waitUntil returns at t. Go's timers overshoot by up to a
// millisecond, which at the open loop's rate is several send slots,
// so the last stretch yields instead of sleeping.
func waitUntil(t time.Time) {
	for {
		left := time.Until(t)
		if left <= 0 {
			return
		}
		if left > 2*time.Millisecond {
			time.Sleep(left - time.Millisecond)
			continue
		}
		runtime.Gosched()
	}
}

// openLoop sends the mix at a fixed rate from one connection for d,
// each request timed from its scheduled send time. When refresher is
// not nil, a second connection posts /api/refresh once a second
// meanwhile. It returns the read latencies, how late the generator
// sent each read, and the refresh latencies.
func openLoop(ctx context.Context, reader, refresher *client, mix []query, rate float64,
	d time.Duration, out *outcome) (lat, late, refresh []float64) {

	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(d)
	lat = make([]float64, 0, int(rate*d.Seconds())+1)
	late = make([]float64, 0, cap(lat))
	var failed []error
	var wg sync.WaitGroup
	if refresher != nil {
		first := time.Second / 2
		if d < time.Second {
			first = d / 2
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for due := start.Add(first); due.Before(end); due = due.Add(time.Second) {
				waitUntil(due)
				r, err := refresher.refresh(ctx)
				if err != nil {
					failed = append(failed, err)
					continue
				}
				refresh = append(refresh, ms(r))
			}
		}()
	}
	var readErrs []error
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			break
		}
		waitUntil(due)
		late = append(late, ms(time.Since(due)))
		if _, err := reader.do(ctx, mix[i%len(mix)]); err != nil {
			readErrs = append(readErrs, err)
			continue
		}
		lat = append(lat, ms(time.Since(due)))
	}
	wg.Wait()
	out.attempted += len(late) + len(refresh) + len(failed)
	for _, err := range append(readErrs, failed...) {
		out.fail("open loop: %v", err)
	}
	return lat, late, refresh
}

// runServe is the serve workload, in three phases: a closed loop over
// two connections in one-second segments, with a few refreshes of the
// idle server before each; an open loop of reads at a fixed rate; the
// same open loop with one refresh a second. Its end-to-end figures are
// the closed loop's requests per CPU-second and the idle refresh
// latency.
// Read latency, and refresh latency under reads, are per-layer: on a
// shared two-vCPU host they are mostly wake-up and scheduling latency,
// and the read median moved by a quarter, its p99 tenfold and the
// loaded refresh median by a fifth between runs of the same code.
func runServe(ctx context.Context, opt options) (*outcome, error) {
	out := newOutcome()
	pa, ps := serveInputs(opt)
	jobs, payloads, err := servePayloads(ctx, pa, ps)
	if err != nil {
		return nil, err
	}

	var spans *spanLog
	wrap := func(h http.Handler) http.Handler { return h }
	if opt.trace {
		spans = &spanLog{}
		wrap = func(h http.Handler) http.Handler { return timedHandler{h: h, spans: spans} }
	}
	// Set-up setupRepsServe times; the last server is the one
	// measured. The reference kernel is sampled only while no load
	// runs, so that no load shares its CPU.
	var setups, warms []float64
	var st *serveStack
	var host hostSpeed
	for rep := 0; rep < setupRepsServe; rep++ {
		if st != nil {
			st.ts.Close()
		}
		host.sample()
		start := time.Now()
		if st, err = startServe(ctx, pa, ps, jobs, payloads, wrap); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		warms = append(warms, ms(st.warm))
	}
	defer st.ts.Close()

	mixLen, rate := 8192, float64(openRate)
	if opt.tiny {
		mixLen, rate = 256, tinyOpenRate
	}
	mix, err := queryMix(st.srv, pa, ps, opt.seed, mixLen)
	if err != nil {
		return nil, err
	}

	var seq int64
	var seqMu sync.Mutex
	clients := []*client{newClient(st.ts.URL), newClient(st.ts.URL)}
	setTraced := func(on bool) {
		for _, c := range clients {
			c.spans, c.seq, c.mu = nil, &seq, &seqMu
			if on {
				c.spans = spans
			}
		}
	}

	total := time.Duration(opt.seconds * float64(time.Second))
	closed := time.Duration(closedShare * float64(total))
	segments := int(closed / time.Second)
	if segments < 2 {
		segments = 2
	}
	clock := phaseClock{floor: serveCPUFloor}
	var qps, perCPU, qpsT, qpsU []float64
	var traced loadStats
	var quiet []float64
	closedRequests, cacheReads := 0, 0
	for k := 0; k < segments; k++ {
		// Between segments the idle server gets a few refreshes: the
		// rebuild's own cost, sampled across the run.
		setTraced(false)
		for j := 0; j < idleRefreshes; j++ {
			host.sample()
			out.attempted++
			r, err := clients[1].refresh(ctx)
			if err != nil {
				out.fail("refresh: %v", err)
				continue
			}
			quiet = append(quiet, ms(r))
		}

		// A traced run alternates untraced and traced segments to
		// measure the tracing overhead.
		on := opt.trace && k%2 == 1
		setTraced(on)
		host.sample()
		before := st.cache.Stats()
		q, c, ls := closedLoop(ctx, &clock, clients, mix, closed/time.Duration(segments), out)
		after := st.cache.Stats()
		cacheReads += (after.Hits + after.Misses) - (before.Hits + before.Misses)
		closedRequests += ls.requests
		qps = append(qps, q)
		perCPU = append(perCPU, c)
		if !on {
			qpsU = append(qpsU, q)
			continue
		}
		qpsT = append(qpsT, q)
		traced.requests += ls.requests
		traced.notModified += ls.notModified
		traced.bytes += ls.bytes
	}

	setTraced(opt.trace)
	host.sample()
	lat, late, _ := openLoop(ctx, clients[0], nil, mix, rate,
		time.Duration(readShare*float64(total)), out)
	host.sample()
	latR, _, refresh := openLoop(ctx, clients[0], clients[1], mix, rate,
		total-closed-time.Duration(readShare*float64(total)), out)
	if len(lat) == 0 || len(latR) == 0 || len(refresh) == 0 || len(quiet) == 0 {
		return nil, fmt.Errorf("open loops completed %d reads, %d reads and %d refreshes; %d idle refreshes",
			len(lat), len(latR), len(refresh), len(quiet))
	}
	logf("serve: closed loop %d requests in %d segments, best %.0f req/s, median %.0f req per CPU-second (segments %.0f to %.0f); open loop %d reads at %.0f/s: p50 %.3fms p99 %.3fms (generator p99 late %.3fms); with refreshes %d reads p99 %.3fms, %d refreshes median %.1fms",
		closedRequests, segments, maxOf(qps), median(perCPU), quantile(perCPU, 0), maxOf(perCPU), len(lat), rate, median(lat),
		quantile(lat, 0.99), quantile(late, 0.99), len(latR), quantile(latR, 0.99),
		len(refresh), median(refresh))
	clock.check("serve closed-loop segments", out)
	f := host.factor()
	logf("serve: %d idle refreshes, median %.1fms; reference kernel median %.2fms CPU over %d samples: host speed factor %.3f",
		len(quiet), median(quiet), median(host.samples), len(host.samples), f)

	logSetups("serve", setups)
	if !opt.trace {
		out.metrics["setup_s"] = median(setups) * f
		out.metrics["throughput_per_s"] = median(perCPU) / f
		out.metrics["latency_ms"] = median(quiet) * f
		return out, nil
	}

	m := out.metrics
	m["trace.overhead_pct"] = 100 * (median(qpsU)/median(qpsT) - 1)
	m["host.ref_ms"] = median(host.samples)
	handler := map[int64]time.Duration{}
	spans.mu.Lock()
	for _, s := range spans.spans {
		if s.name == "serve.handler" {
			handler[s.id] = s.dur
		}
	}
	byClass := map[string][]time.Duration{}
	var transport []time.Duration
	for _, s := range spans.spans {
		if s.name == "serve.handler" {
			continue
		}
		h, ok := handler[s.id]
		if !ok {
			continue
		}
		class := s.name[len("serve.client."):]
		byClass[class] = append(byClass[class], h)
		if class != "refresh" {
			transport = append(transport, s.dur-h)
		}
	}
	spans.mu.Unlock()
	for _, class := range serveClasses {
		m["serve.handler_us."+class] = medianOf(byClass[class], us)
	}
	m["serve.transport_us"] = medianOf(transport, us)
	m["serve.not_modified_frac"] = float64(traced.notModified) / float64(traced.requests)
	m["serve.bytes_per_req"] = float64(traced.bytes) / float64(traced.requests)
	m["serve.cache_reads_per_req"] = float64(cacheReads) / float64(closedRequests)
	m["serve.refresh_ms"] = median(refresh)
	m["serve.refresh_handler_ms"] = medianOf(byClass["refresh"], ms)
	m["serve.refresh_read_p99_ms"] = quantile(latR, 0.99)
	m["serve.cpu_frac"] = clock.cpuFrac()
	m["serve.max_qps"] = maxOf(qps)
	m["serve.read_p50_ms"] = median(lat)
	m["serve.read_p99_ms"] = quantile(lat, 0.99)
	m["serve.warm_ms"] = median(warms)
	m["serve.open_samples"] = float64(len(lat))
	m["engine.spans_retained"] = float64(st.eng.Spans().Len())
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m["serve.heap_mb"] = float64(mem.HeapInuse) / (1 << 20)
	m["loadgen.late_ms"] = quantile(late, 0.99)
	return out, nil
}
