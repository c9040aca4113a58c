package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sensornet/internal/analytic"
	"sensornet/internal/buckets"
	"sensornet/internal/channel"
	"sensornet/internal/deploy"
	"sensornet/internal/engine"
	"sensornet/internal/experiments"
	"sensornet/internal/mathx"
	"sensornet/internal/protocol"
	"sensornet/internal/sim"
	"sensornet/internal/trace"
)

// warmPerCold is how many warm passes follow each cold pass. A warm
// pass takes a third of a cold one's time, so a 30-second run samples
// four cold and eight warm passes.
const warmPerCold = 2

// campaignInputs is the campaign workload's input: the quick presets
// with the simulated preset seeded from -seed, the shootout at its
// default densities, and the extra figures.
type campaignInputs struct {
	pa, ps experiments.Preset
	rhos   []float64
	extras bool
}

func newCampaignInputs(opt options) campaignInputs {
	in := campaignInputs{pa: experiments.QuickAnalytic(), ps: experiments.QuickSim(),
		rhos: experiments.DefaultShootoutRhos(), extras: true}
	in.ps.Seed = opt.seed
	if opt.tiny {
		in.pa.Rhos = []float64{20, 60}
		in.pa.Grid = mathx.Range(0.1, 1, 0.1)
		in.ps.Rhos = []float64{20, 60}
		in.ps.Grid = mathx.Range(0.25, 1, 0.25)
		in.ps.Runs = 1
		in.rhos = []float64{40}
		in.extras = false
	}
	return in
}

// jobs builds the campaign's cacheable job sets — both surfaces and
// the shootout cells — the way every shard, worker and merge process
// does before its first job. The shootout's set calibrates the PB law.
func (in campaignInputs) jobs() ([]engine.Job, error) {
	jobs := experiments.SurfaceJobs(in.pa, false, 1)
	jobs = append(jobs, experiments.SurfaceJobs(in.ps, true, 1)...)
	shoot, err := experiments.ShootoutJobs(in.ps, in.rhos)
	if err != nil {
		return nil, err
	}
	return append(jobs, shoot...), nil
}

// pass runs the whole campaign plus the shootout on a fresh one-worker
// engine over cache and returns the rendered report, the engine (whose
// span log the traced run reads) and the number of figures.
func (in campaignInputs) pass(ctx context.Context, cache *engine.Cache) ([]byte, *engine.Engine, int, error) {
	eng := engine.New(engine.Config{Workers: 1, Cache: cache})
	var buf bytes.Buffer
	figs, err := experiments.Campaign{Analytic: in.pa, Sim: in.ps, Extras: in.extras,
		Engine: eng}.RunContext(ctx, &buf)
	if err != nil {
		return nil, nil, 0, err
	}
	fig, err := experiments.ShootoutCtx(ctx, eng, in.ps, in.rhos)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := fig.Render(&buf); err != nil {
		return nil, nil, 0, err
	}
	return buf.Bytes(), eng, len(figs) + 1, nil
}

// engineBusy sums the execution time of the engine's uncached spans
// whose job name passes keep, and counts spans by cache outcome.
func engineBusy(spans []trace.Span, keep func(name string) bool) (busy time.Duration, executed, cached int) {
	for _, s := range spans {
		if !keep(s.Name) {
			continue
		}
		if s.Cached {
			cached++
			continue
		}
		executed++
		busy += s.Duration
	}
	return busy, executed, cached
}

func isSurfaceJob(name string) bool {
	return strings.HasPrefix(name, "analytic-point(") || strings.HasPrefix(name, "sim-row(")
}

func isShootJob(name string) bool { return strings.HasPrefix(name, "shoot(") }

func anyJob(string) bool { return true }

// campaignCPUFloor is the least CPU over wall a run's cold passes, and
// its warm passes, may run at. On its one engine worker an uncontended
// pass runs at 1.00; passes that wait long enough to stretch their wall
// time by a quarter, the throughput bound, fall to 0.8.
const campaignCPUFloor = 0.8

// setupReps is how many times each cycle sets up, so that set-up time
// is a median over several samples a cycle.
const setupReps = 3

// runCampaign is the campaign workload. Each cycle opens a disk cache
// in a fresh directory and builds the job sets (set-up), runs one cold
// pass that computes everything, then warmPerCold warm passes, each on
// a new engine over the filled cache. Every warm report must equal the
// cold one.
//
// Passes are timed in process CPU time. On its one engine worker an
// uncontended pass runs at 1.00 CPU seconds per wall second, so this is
// the wall time of an idle box; on a shared one it leaves out the time
// other tenants take. Passes under campaignCPUFloor fail the run, so a
// change that makes a pass wait rather than work cannot hide in CPU
// time. The wall times go to standard error. Set-up, mostly the PB-law
// calibration's numerics, is scaled by the host speed factor
// (hostSpeed) like dist's and serve's figures. The pass times follow
// the host's speed about half as much as the reference kernel does, so
// they are scaled by the factor's square root.
//
// The traced run records nothing inside a timed pass: it reads the
// engine's span log, which every pass keeps, after the pass. So
// campaign's tracing overhead is 0 by construction.
func runCampaign(ctx context.Context, opt options) (*outcome, error) {
	in := newCampaignInputs(opt)
	out := newOutcome()
	var (
		coldClock           = phaseClock{floor: campaignCPUFloor}
		warmClock           = phaseClock{floor: campaignCPUFloor}
		host                hostSpeed
		setups, cold        []float64
		coldWall, warmWall  []float64
		warm                []float64
		surfBusy, shootBusy []float64
		figBusy, uncached   []float64
		hitFrac             []float64
		figures             int
		dirs                []string
		deadline            = time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	)
	// Each cycle's cache directory is kept until the run ends: deleting
	// files frees disk blocks, and on a filesystem mounted with online
	// discard that slows the file writes of the next cold pass.
	defer func() {
		for _, dir := range dirs {
			os.RemoveAll(dir)
		}
	}()
	for cycle := 0; cycle < 1 || time.Now().Before(deadline); cycle++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		// Set-up, setupReps times: open a disk cache in a fresh
		// directory and build the job sets. The last cache is used.
		var dir string
		var cache *engine.Cache
		for r := 0; r < setupReps; r++ {
			start := time.Now()
			d, err := os.MkdirTemp(opt.workdir, "campaign-")
			if err != nil {
				return nil, err
			}
			dirs = append(dirs, d)
			c := engine.NewCache(d, experiments.CacheSalt)
			if _, err := in.jobs(); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(start).Seconds())
			dir, cache = d, c
		}

		host.sample()
		out.attempted++
		var ref []byte
		var eng *engine.Engine
		wall, cpu, err := coldClock.time(func() (err error) {
			ref, eng, figures, err = in.pass(ctx, cache)
			return err
		})
		if err != nil {
			out.fail("cold pass: %v", err)
			continue
		}
		cold = append(cold, cpu.Seconds())
		coldWall = append(coldWall, wall.Seconds())
		if opt.trace {
			sp := eng.Spans().Spans()
			b, _, _ := engineBusy(sp, isSurfaceJob)
			surfBusy = append(surfBusy, b.Seconds())
			b, _, _ = engineBusy(sp, isShootJob)
			shootBusy = append(shootBusy, b.Seconds())
		}

		for w := 0; w < warmPerCold; w++ {
			host.sample()
			out.attempted++
			var got []byte
			wall, cpu, err := warmClock.time(func() (err error) {
				got, eng, _, err = in.pass(ctx, engine.NewCache(dir, experiments.CacheSalt))
				return err
			})
			if err != nil {
				out.fail("warm pass: %v", err)
				continue
			}
			if !bytes.Equal(got, ref) {
				out.fail("warm pass report (%d bytes) differs from the cold pass (%d bytes)", len(got), len(ref))
			}
			warm = append(warm, cpu.Seconds())
			warmWall = append(warmWall, wall.Seconds())
			if !opt.trace {
				continue
			}
			b, executed, cached := engineBusy(eng.Spans().Spans(), anyJob)
			figBusy = append(figBusy, b.Seconds())
			uncached = append(uncached, float64(executed))
			hitFrac = append(hitFrac, float64(cached)/float64(executed+cached))
		}
	}
	if len(cold) == 0 || len(warm) == 0 {
		return nil, fmt.Errorf("no complete cold and warm pass (%d failures)", out.failed)
	}
	logf("campaign: %d cold passes (median %.3fs CPU, %.3fs wall), %d warm passes (median %.3fs CPU, %.3fs wall; max %.3fs CPU)",
		len(cold), median(cold), median(coldWall), len(warm), median(warm), median(warmWall), maxOf(warm))
	coldClock.check("campaign cold passes", out)
	warmClock.check("campaign warm passes", out)
	f := host.factor()
	g := math.Sqrt(f)
	logf("campaign: reference kernel median %.2fms CPU over %d samples: host speed factor %.3f, its square root %.3f for passes",
		median(host.samples), len(host.samples), f, g)

	logSetups("campaign", setups)
	if !opt.trace {
		out.metrics["setup_s"] = median(setups) * f
		out.metrics["throughput_per_s"] = float64(figures) / (median(cold) * g)
		out.metrics["latency_ms"] = 1000 * median(warm) * g
		return out, nil
	}

	m := out.metrics
	m["trace.overhead_pct"] = 0
	m["host.ref_ms"] = median(host.samples)
	m["campaign.cpu_frac"] = math.Min(coldClock.cpuFrac(), warmClock.cpuFrac())
	m["campaign.cold_wall_s"] = median(coldWall)
	m["campaign.warm_wall_s"] = median(warmWall)
	m["campaign.warm_max_s"] = maxOf(warm)
	m["engine.busy.surface_s"] = median(surfBusy)
	m["engine.busy.shootout_s"] = median(shootBusy)
	m["engine.busy.figure_s"] = median(figBusy)
	m["engine.uncached_jobs"] = median(uncached)
	m["engine.hit_frac"] = median(hitFrac)
	if err := campaignProbes(ctx, opt, in, dirs[len(dirs)-1], m); err != nil {
		return nil, err
	}
	return out, nil
}

// probeSink keeps probe results live so the compiler cannot drop the
// calls being timed.
var probeSink float64

// campaignProbes times single calls into each compute layer on the
// workload's own configurations, and reads the cache layer on the
// workload's own payloads from the filled cache in dir.
func campaignProbes(ctx context.Context, opt options, in campaignInputs, dir string, m map[string]float64) error {
	rng := rand.New(rand.NewSource(opt.seed))
	const reps = 5

	// Analytic: one run per sampled (rho, p) point of the surface, and
	// the PB-law calibration every shootout consumer pays.
	var runs []time.Duration
	for i := 0; i < 12; i++ {
		cfg := in.pa.AnalyticConfig(in.pa.Rhos[rng.Intn(len(in.pa.Rhos))])
		cfg.Prob = in.pa.Grid[rng.Intn(len(in.pa.Grid))]
		start := time.Now()
		res, err := analytic.Run(cfg)
		if err != nil {
			return err
		}
		runs = append(runs, time.Since(start))
		probeSink += res.SuccessRate
	}
	m["analytic.run_ms"] = medianOf(runs, ms)
	var cal []time.Duration
	for i := 0; i < 3; i++ {
		start := time.Now()
		law, err := analytic.CalibrateLaw(in.ps.P, in.ps.S, 60, in.ps.Constraints.Latency, 0.02)
		if err != nil {
			return err
		}
		cal = append(cal, time.Since(start))
		probeSink += law.C
	}
	m["analytic.calibrate_ms"] = medianOf(cal, ms)
	var mu []time.Duration
	for r := 0; r < reps; r++ {
		mu = append(mu, perCall(20000, func(i int) {
			probeSink += buckets.MuReal(float64(i%140)+0.37, in.pa.S, buckets.KLinear)
		}))
	}
	m["buckets.mu_us"] = medianOf(mu, us)

	// Deployments at the shootout's densest field: plain (CFM, CAM) and
	// with the sensing lists and path gains SINR needs.
	dense := in.rhos[len(in.rhos)-1]
	sinr := channel.DefaultSINRParams()
	plainCfg := deploy.Config{P: in.ps.P, Rho: dense}
	gainCfg := deploy.Config{P: in.ps.P, Rho: dense, WithSensing: true, GainAlpha: sinr.Alpha}
	var plain, gain []time.Duration
	var plainDep, gainDep *deploy.Deployment
	for i := 0; i < 8; i++ {
		seed := rng.Int63()
		start := time.Now()
		d, err := deploy.Generate(plainCfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			return err
		}
		plain = append(plain, time.Since(start))
		start = time.Now()
		g, err := deploy.Generate(gainCfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			return err
		}
		gain = append(gain, time.Since(start))
		plainDep, gainDep = d, g
	}
	m["deploy.generate_ms"] = medianOf(plain, ms)
	m["deploy.generate_gain_ms"] = medianOf(gain, ms)

	// The shootout runs every (model, density, scheme) cell over Runs
	// replicates and builds a deployment for each, although only
	// (density, replicate) pairs are distinct.
	shoot, err := experiments.ShootoutJobs(in.ps, in.rhos)
	if err != nil {
		return err
	}
	m["shootout.deployments_built"] = float64(len(shoot) * in.ps.Runs)
	m["shootout.deployments_distinct"] = float64(len(in.rhos) * in.ps.Runs)

	// One dense slot: every 20th node transmits.
	var txs []int32
	for i := 0; i < plainDep.N(); i += 20 {
		txs = append(txs, int32(i))
	}
	cam, err := channel.NewResolver(channel.CAM, plainDep)
	if err != nil {
		return err
	}
	phy, err := channel.NewResolverSINR(gainDep, sinr)
	if err != nil {
		return err
	}
	var camT, phyT []time.Duration
	delivered := 0
	for r := 0; r < reps; r++ {
		camT = append(camT, perCall(500, func(int) {
			cam.ResolveSlot(txs, func(_, _ int32) { delivered++ })
		}))
		phyT = append(phyT, perCall(500, func(int) {
			phy.ResolveSlot(txs, func(_, _ int32) { delivered++ })
		}))
	}
	probeSink += float64(delivered)
	m["channel.resolve_us.cam"] = medianOf(camT, us)
	m["channel.resolve_us.sinr"] = medianOf(phyT, us)

	// Whole flooding runs under the shootout's settings.
	var simCAM, simSINR []time.Duration
	var phases []float64
	for i := 0; i < 6; i++ {
		for _, model := range []channel.Model{channel.CAM, channel.ModelSINR} {
			cfg := in.ps.SimConfig(dense)
			cfg.Model = model
			cfg.Protocol = protocol.Flooding{}
			cfg.MaxPhases = 2 * int(in.ps.Constraints.Latency)
			cfg.Seed = rng.Int63()
			start := time.Now()
			res, err := sim.Run(cfg)
			if err != nil {
				return err
			}
			if model == channel.CAM {
				simCAM = append(simCAM, time.Since(start))
			} else {
				simSINR = append(simSINR, time.Since(start))
			}
			phases = append(phases, float64(len(res.PhaseNew)))
		}
	}
	m["sim.run_ms.cam"] = medianOf(simCAM, ms)
	m["sim.run_ms.sinr"] = medianOf(simSINR, ms)
	m["sim.phases"] = mean(phases)

	// The rest reads the filled cache: a cache-only engine proves the
	// pass left every cacheable result behind.
	eng := engine.New(engine.Config{Workers: 1, CacheOnly: true,
		Cache: engine.NewCache(dir, experiments.CacheSalt)})
	data, err := experiments.ShootoutDataCtx(ctx, eng, in.ps, in.rhos)
	if err != nil {
		return err
	}
	var lost, got float64
	for _, row := range data.Rows {
		for _, s := range row.Schemes {
			lost += s.LostColl
			got += s.Delivered
		}
	}
	m["channel.loss_frac"] = lost / (lost + got)

	figs, err := experiments.Campaign{Analytic: in.pa, Sim: in.ps, Extras: in.extras,
		Engine: engine.New(engine.Config{Workers: 1, Cache: engine.NewCache(dir, experiments.CacheSalt)}),
	}.RunContext(ctx, nil)
	if err != nil {
		return err
	}
	var render []time.Duration
	for r := 0; r < reps; r++ {
		var buf bytes.Buffer
		start := time.Now()
		for _, f := range figs {
			if err := f.Render(&buf); err != nil {
				return err
			}
		}
		render = append(render, time.Since(start))
	}
	m["experiments.render_ms"] = medianOf(render, ms)

	return cacheProbes(ctx, opt, in, eng, m)
}

// cacheProbes stores the workload's own results into a fresh disk
// cache and reads them back through a second cache over the same
// directory, timing each entry.
func cacheProbes(ctx context.Context, opt options, in campaignInputs, filled *engine.Engine, m map[string]float64) error {
	jobs, err := in.jobs()
	if err != nil {
		return err
	}
	results, err := filled.Run(ctx, jobs)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(opt.workdir, "cacheprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	put := engine.NewCache(dir, experiments.CacheSalt)
	var puts, gets []time.Duration
	for i, j := range jobs {
		enc, _ := j.(engine.Codec).ResultCodec()
		start := time.Now()
		put.Put(j.Fingerprint(), results[i].Value, enc)
		puts = append(puts, time.Since(start))
	}
	get := engine.NewCache(dir, experiments.CacheSalt)
	for _, j := range jobs {
		_, dec := j.(engine.Codec).ResultCodec()
		start := time.Now()
		v, ok := get.Get(j.Fingerprint(), dec)
		gets = append(gets, time.Since(start))
		if !ok || v == nil {
			return fmt.Errorf("cache probe: %s did not read back", j.Name())
		}
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	var size float64
	for _, e := range entries {
		st, err := os.Stat(e)
		if err != nil {
			return err
		}
		size += float64(st.Size())
	}
	m["cache.put_us"] = medianOf(puts, us)
	m["cache.get_us"] = medianOf(gets, us)
	m["cache.entry_bytes"] = size / float64(len(entries))
	return nil
}
