package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// phaseClock accumulates wall and CPU time over a run's timed phases,
// so every workload can report how much of its measured wall time the
// process spent computing rather than waiting. The end-to-end figures
// are per CPU-second or in CPU time, so they would not show a change
// that makes the program wait — on a timer, a lock, the disk — instead
// of work; check fails the run when its phases ran under floor CPU
// seconds per wall second. The check is on the whole run, not on each
// phase: a change that waits does so in every phase, while the host
// stalls a single short phase now and then.
type phaseClock struct {
	floor     float64
	wall, cpu time.Duration
	// least is the lowest CPU over wall of a single phase.
	least float64
	n     int
}

// time runs fn as one timed phase and returns its wall and CPU time.
func (c *phaseClock) time(fn func() error) (wall, cpu time.Duration, err error) {
	cpu0 := cpuTime()
	start := time.Now()
	err = fn()
	wall, cpu = c.record(start, cpu0)
	return wall, cpu, err
}

// record ends a phase that began at start with the process at cpu0 CPU
// time, and returns its wall and CPU time.
func (c *phaseClock) record(start time.Time, cpu0 time.Duration) (wall, cpu time.Duration) {
	wall = time.Since(start)
	cpu = cpuTime() - cpu0
	c.wall += wall
	c.cpu += cpu
	if frac := cpu.Seconds() / wall.Seconds(); c.n == 0 || frac < c.least {
		c.least = frac
	}
	c.n++
	return wall, cpu
}

// cpuFrac is CPU time over wall time across every phase timed so far.
func (c *phaseClock) cpuFrac() float64 {
	if c.wall <= 0 {
		return 0
	}
	return c.cpu.Seconds() / c.wall.Seconds()
}

// check says on standard error how busy the timed phases were, and
// records a failed operation against out when they ran under the
// floor. phases names them in the messages.
func (c *phaseClock) check(phases string, out *outcome) {
	logf("%s: %d timed, at %.2f CPU seconds per wall second (floor %.2f), the least busy at %.2f",
		phases, c.n, c.cpuFrac(), c.floor, c.least)
	if c.cpuFrac() < c.floor {
		out.fail("%s ran at %.2f CPU seconds per wall second, under the %.2f floor: they waited rather than worked",
			phases, c.cpuFrac(), c.floor)
	}
}

// quantile returns the nearest-rank q-quantile of xs: the smallest
// sample with at least a q share of the sample at or below it, so
// quantile(xs, 0) is the minimum, and for q = 0.99 and fewer than 100
// samples it is the maximum. It is 0 for an empty sample. Every median,
// percentile and maximum the benchmark reports uses it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 { return quantile(xs, 1) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perCall times n calls of fn and returns the mean duration of one.
func perCall(n int, fn func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(start) / time.Duration(n)
}

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Spans of one request share an id.
type span struct {
	name  string
	id    int64
	start time.Time
	dur   time.Duration
}

// spanLog keeps spans in memory for the length of a traced run. A nil
// *spanLog records nothing, which is how untraced runs skip it.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) record(name string, id int64, start time.Time, dur time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{name: name, id: id, start: start, dur: dur})
	l.mu.Unlock()
}

// durations returns the durations of every span named name.
func (l *spanLog) durations(name string) []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []time.Duration
	for _, s := range l.spans {
		if s.name == name {
			out = append(out, s.dur)
		}
	}
	return out
}

// medianOf returns the median of ds converted by unit.
func medianOf(ds []time.Duration, unit func(time.Duration) float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = unit(d)
	}
	return median(xs)
}

// logSetups says on standard error how a run's set-up times spread.
func logSetups(workload string, setups []float64) {
	logf("%s: %d set-ups, median %.1fms, from %.1fms to %.1fms", workload, len(setups),
		1000*median(setups), 1000*quantile(setups, 0), 1000*maxOf(setups))
}

// logf writes a human-readable progress line to standard error; the
// result line on standard output stays the only machine output.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// refNominalMs is the thread CPU time of one refKernel call on the box
// the benchmark was proven on, in a quiet period. Normalized figures
// read as time on that box.
const refNominalMs = 21.0

// refState is refKernel's working memory, allocated once so that the
// kernel never allocates: its time must not depend on the heap or the
// garbage collector of the program it runs beside.
var refState = struct {
	xs, ys []float64
	m      map[int]float64
	sink   float64
}{xs: make([]float64, 20000), ys: make([]float64, 20000), m: make(map[int]float64, 1000)}

// refKernel is a fixed unit of CPU work owned by the benchmark — float
// math, map updates and sorting, like the program's hot paths — that
// no change to the program can speed up or slow down.
func refKernel() {
	st := &refState
	for i := range st.xs {
		st.xs[i] = math.Sin(float64(i)*0.37) * math.Exp(float64(i%50)*0.01)
	}
	for r := 0; r < 10; r++ {
		for i := 0; i < 1000; i++ {
			st.m[i] = 0
		}
		for i, x := range st.xs {
			st.m[i%1000] += x
		}
		copy(st.ys, st.xs)
		sort.Float64s(st.ys)
		st.sink += st.m[7] + st.ys[len(st.ys)/2]
	}
}

// threadCPU returns the calling OS thread's CPU time.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD on Linux
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSpeed samples refKernel between a workload's timed units. The
// shared virtual machines this runs on change speed by a third over
// tens of minutes and by a tenth from second to second; the run's
// median sample measures that speed, and factor scales the run's time
// figures to the reference box.
type hostSpeed struct {
	samples []float64
}

// sample times one refKernel call in the CPU time of the thread it
// runs on, so that other goroutines and the garbage collector's
// workers do not count.
func (h *hostSpeed) sample() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	refKernel()
	h.samples = append(h.samples, ms(threadCPU()-start))
}

// factor is how much faster the reference box is than this run's host:
// multiply a time by it, divide a rate by it.
func (h *hostSpeed) factor() float64 { return refNominalMs / median(h.samples) }
