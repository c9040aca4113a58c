// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the program in-process — internal/experiments,
// engine, dist and serve through their public APIs — so no timed
// region contains process start-up, and every timed region ends when
// its work is done.
//
//	perfbench -workload campaign|dist|serve -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// per-layer ones, measured from spans the benchmark records around its
// calls into each layer. README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
)

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	// tiny shrinks every workload to a few seconds of work; the smoke
	// test uses it.
	tiny bool
}

// outcome is what a workload reports: operation counts, the failures
// among them (a failed correctness gate counts as a failed
// operation), and its metric values by name.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// fail records one failed operation and says why on standard error.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

type workloadFunc func(ctx context.Context, opt options) (*outcome, error)

var workloads = map[string]workloadFunc{
	"campaign": runCampaign,
	"dist":     runDist,
	"serve":    runServe,
}

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
	// owner is the workload that loads the layer a per-layer metric
	// measures, or "" when every workload reports it. The others
	// report 0: the layer does no work in them.
	owner string
}

// endToEnd lists the metrics of a -trace 0 run. Every workload
// reports each of them; README.md gives the per-workload meaning.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s"},
	{name: "throughput_per_s", unit: "1/s"},
	{name: "latency_ms", unit: "ms"},
	{name: "max_rss_mb", unit: "MB"},
}

// perLayer lists the metrics of a -trace 1 run.
var perLayer = []metricSpec{
	{"trace.overhead_pct", "%", ""},
	{"host.ref_ms", "ms", ""},

	{"campaign.cpu_frac", "frac", "campaign"},
	{"campaign.cold_wall_s", "s", "campaign"},
	{"campaign.warm_wall_s", "s", "campaign"},
	{"campaign.warm_max_s", "s", "campaign"},
	{"engine.busy.surface_s", "s", "campaign"},
	{"engine.busy.shootout_s", "s", "campaign"},
	{"engine.busy.figure_s", "s", "campaign"},
	{"engine.uncached_jobs", "count", "campaign"},
	{"engine.hit_frac", "frac", "campaign"},
	{"analytic.run_ms", "ms", "campaign"},
	{"analytic.calibrate_ms", "ms", "campaign"},
	{"buckets.mu_us", "us", "campaign"},
	{"deploy.generate_ms", "ms", "campaign"},
	{"deploy.generate_gain_ms", "ms", "campaign"},
	{"shootout.deployments_built", "count", "campaign"},
	{"shootout.deployments_distinct", "count", "campaign"},
	{"channel.resolve_us.cam", "us", "campaign"},
	{"channel.resolve_us.sinr", "us", "campaign"},
	{"channel.loss_frac", "frac", "campaign"},
	{"sim.run_ms.cam", "ms", "campaign"},
	{"sim.run_ms.sinr", "ms", "campaign"},
	{"sim.phases", "count", "campaign"},
	{"experiments.render_ms", "ms", "campaign"},
	{"cache.get_us", "us", "campaign"},
	{"cache.put_us", "us", "campaign"},
	{"cache.entry_bytes", "B", "campaign"},

	{"dist.cpu_frac", "frac", "dist"},
	{"dist.jobs_per_s", "1/s", "dist"},
	{"dist.lease_p99_ms", "ms", "dist"},
	{"dist.lease_rtt_us", "us", "dist"},
	{"dist.result_rtt_us", "us", "dist"},
	{"dist.requests_per_job", "count", "dist"},
	{"dist.bytes_per_job", "B", "dist"},
	{"dist.lease_ms", "ms", "dist"},
	{"dist.steals", "count", "dist"},
	{"dist.backpressured", "count", "dist"},
	{"dist.duplicates", "count", "dist"},
	{"dist.from_cache_frac", "frac", "dist"},
	{"dist.idle_wait_s", "s", "dist"},
	{"dist.lingering_workers", "count", "dist"},
	{"cache.ingest_us", "us", "dist"},

	{"serve.cpu_frac", "frac", "serve"},
	{"serve.max_qps", "1/s", "serve"},
	{"serve.read_p50_ms", "ms", "serve"},
	{"serve.read_p99_ms", "ms", "serve"},
	{"serve.handler_us.optimal", "us", "serve"},
	{"serve.handler_us.surface_row", "us", "serve"},
	{"serve.handler_us.surface_full", "us", "serve"},
	{"serve.handler_us.shootout", "us", "serve"},
	{"serve.transport_us", "us", "serve"},
	{"serve.not_modified_frac", "frac", "serve"},
	{"serve.bytes_per_req", "B", "serve"},
	{"serve.cache_reads_per_req", "count", "serve"},
	{"serve.refresh_ms", "ms", "serve"},
	{"serve.refresh_handler_ms", "ms", "serve"},
	{"serve.refresh_read_p99_ms", "ms", "serve"},
	{"serve.warm_ms", "ms", "serve"},
	{"serve.open_samples", "count", "serve"},
	{"engine.spans_retained", "count", "serve"},
	{"serve.heap_mb", "MB", "serve"},
	{"loadgen.late_ms", "ms", "serve"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult checks that the workload reported exactly the metrics
// of the selected list and attaches their units.
func buildResult(opt options, out *outcome) (resultLine, error) {
	specs := endToEnd
	if opt.trace {
		specs = perLayer
	}
	res := resultLine{Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metricValue, len(specs))}
	known := make(map[string]bool, len(specs))
	for _, s := range specs {
		known[s.name] = true
		v, ok := out.metrics[s.name]
		switch {
		case ok:
		case opt.trace && s.owner != "" && s.owner != opt.workload:
			v = 0
		default:
			return res, fmt.Errorf("workload %s did not report %s", opt.workload, s.name)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	var extra []string
	for name := range out.metrics {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return res, fmt.Errorf("workload %s reported unlisted metrics %v", opt.workload, extra)
	}
	if res.Attempted < 1 {
		return res, errors.New("no operation was attempted")
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// run executes one benchmark invocation and writes its result line.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload to run: campaign, dist or serve")
	fs.Int64Var(&opt.seed, "seed", 1, "seed every workload input is derived from")
	fs.Float64Var(&opt.seconds, "seconds", 20, "length of the measured loop in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	fs.StringVar(&opt.workdir, "workdir", ".bench_build/work", "directory for the benchmark's scratch files")
	fs.BoolVar(&opt.tiny, "tiny", false, "shrink every workload to a smoke-test size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[opt.workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q: want campaign, dist or serve", opt.workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	if opt.seconds <= 0 {
		return fmt.Errorf("-seconds %g: want a positive length", opt.seconds)
	}
	opt.trace = trace == 1
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		return err
	}

	out, err := wl(ctx, opt)
	if err != nil {
		return fmt.Errorf("%s: %w", opt.workload, err)
	}
	if !opt.trace {
		out.metrics["max_rss_mb"] = maxRSSMB()
	}
	res, err := buildResult(opt, out)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		stop()
		os.Exit(1)
	}
}
