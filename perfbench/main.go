// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload through the root API or the in-process profiling daemon,
// checks every report it gets, and prints the workload's end-to-end metrics
// or, with --trace 1, its per-layer metrics. The last line of standard
// output is one JSON object with the result. Run it from the repository
// root, which holds the golden corpus it checks against:
//
//	bash perfbench/run.sh --workload sweep-l3 --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// session is a workload that has been set up and is ready to measure.
type session interface {
	// run does the workload's fixed unit of work n times and returns the
	// timed parts of each round.
	run(ctx context.Context, n int) ([][]part, error)
	// jobTimes returns the job latencies of the rounds run so far that
	// job_p50_s and job_tail_s are taken over.
	jobTimes() []float64
	// traced runs the workload's profiles through the traced pipeline.
	traced(ctx context.Context) (*layerRun, error)
	close()
}

type workload struct {
	name string
	// nominal is the wall time of one round when the benchmark was
	// defined. A run does --seconds/nominal rounds, so a faster program
	// does the same work in less time instead of more work.
	nominal float64
	open    func(context.Context, *bench) (session, error)
}

// Apps of the library workloads as {suite, app, gpu}. The sweep mixes
// memory-latency, streaming, compute, constant-cache and many-small-launch
// kernels; the level-1 profiles are the apps whose time is mostly the SM
// tick, fast-forward advance and memory drain.
var (
	sweepApps = expand([][2]string{
		{"rodinia", "gaussian"}, {"shoc", "triad"}, {"altis", "gups"}, {"rodinia", "nw"},
		{"rodinia", "huffman"}, {"altis", "where"}, {"altis", "dwt2d"}, {"rodinia", "myocyte"},
	}, gpus)
	l1Apps = [][3]string{
		{"rodinia", "lud", "rtx4000"}, {"rodinia", "srad_v1", "gtx1070"}, {"altis", "maxflops", "gtx1070"},
	}
)

var workloads = []workload{
	{name: "sweep-l3", nominal: 7.5, open: openLibrary(3, true, sweepApps)},
	{name: "profile-l1", nominal: 6, open: openLibrary(1, false, l1Apps)},
	{name: "daemon-resubmit", nominal: 4.5, open: openDaemon},
}

func expand(apps [][2]string, gpus []string) [][3]string {
	var out [][3]string
	for _, g := range gpus {
		for _, a := range apps {
			out = append(out, [3]string{a[0], a[1], g})
		}
	}
	return out
}

// bench is the state one run shares across its workload.
type bench struct {
	rng   *rand.Rand
	check *checker
	out   io.Writer
	trace bool
}

// shuffled returns keys in an order drawn from the run's seed. The seed
// changes only the order of profiles and jobs; app inputs are fixed by each
// suite's per-app seed.
func (b *bench) shuffled(keys []profileKey) []profileKey {
	out := append([]profileKey(nil), keys...)
	b.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// A run sets its workload up at least setupReps times and until it has
// spent setupSeconds doing so, at most setupMaxReps times; setup_s is the
// median. A set-up of a few tens of milliseconds thus gets enough samples
// for a steady median.
const (
	setupReps    = 5
	setupSeconds = 2.0
	setupMaxReps = 41
)

// Metric names and units; BENCHMARK.json lists the same ones.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"}, {"sim_cycles_per_s", "1/s"},
		{"job_p50_s", "s"}, {"job_tail_s", "s"}, {"peak_rss_mb", "MB"},
	}
	perLayer = []metricDef{
		{"cupti.profile_s", "s"}, {"cupti.passes", "count"}, {"cupti.replay_extra_s", "s"},
		{"cupti.sim_frac", "ratio"}, {"cupti.cache_hits", "count"}, {"cupti.cache_misses", "count"},
		{"cupti.overhead_x", "ratio"},
		{"sim.device_new_s", "s"}, {"sim.launch_s", "s"}, {"sim.flush_s", "s"}, {"sim.cycles", "count"},
		{"sim.ticks", "count"}, {"sim.ff_skip_frac", "ratio"}, {"sim.warp_insts", "count"},
		{"sim.warp_insts_per_s", "1/s"}, {"sim.ns_per_tick", "ns"},
		{"mem.snapshot_s", "s"}, {"mem.hash_s", "s"}, {"mem.restore_s", "s"}, {"mem.snapshot_mb", "MB"},
		{"workloads.setup_s", "s"}, {"workloads.launches", "count"},
		{"core.analyze_s", "s"}, {"core.aggregate_s", "s"}, {"report.render_s", "s"}, {"report.kb", "KB"},
		{"serve.submit_s", "s"}, {"serve.report_fetch_s", "s"}, {"serve.queue_wait_s", "s"},
		{"serve.run_s", "s"}, {"serve.poll_overhead_s", "s"}, {"serve.refused", "count"},
	}
)

type metricDef struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed for the order of profiles and jobs")
	seconds := fs.Float64("seconds", 25, "run length at the speed the benchmark was defined at")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := os.Stat(goldenDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run from the repository root: %v\n", err)
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	b := &bench{rng: rand.New(rand.NewSource(*seed)), check: newChecker(".", stdout), out: stdout, trace: *trace == 1}
	res, err := measure(context.Background(), b, w, *seconds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// moreSetups reports whether a run that has set up done times, spending
// spent seconds, sets up again.
func moreSetups(done int, spent float64) bool {
	return done < setupReps || (spent < setupSeconds && done < setupMaxReps)
}

// rounds is how many rounds a run of the given length does.
func rounds(seconds, nominal float64) int {
	return max(1, int(math.Round(seconds/nominal)))
}

// measure sets the workload up, runs its rounds and returns the result: the
// end-to-end metrics, or in a traced run one untraced round followed by the
// traced pipeline and the per-layer metrics.
func measure(ctx context.Context, b *bench, w *workload, seconds float64) (*result, error) {
	n := rounds(seconds, w.nominal)
	if b.trace {
		n = 1
	}
	var setups []float64
	var s session
	for spent := 0.0; ; {
		if s != nil {
			s.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if s, err = w.open(ctx, b); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(start).Seconds()
		setups, spent = append(setups, d), spent+d
		if b.trace || !moreSetups(len(setups), spent) {
			break
		}
	}
	defer s.close()
	rssSetup, err := procStatusMB("VmRSS")
	if err != nil {
		return nil, err
	}

	all, err := s.run(ctx, n)
	if err != nil {
		return nil, err
	}
	var walls []float64
	for _, parts := range all {
		wall := 0.0
		for _, p := range parts {
			wall += p.wall
		}
		walls = append(walls, wall)
	}

	res := &result{Metrics: map[string]metric{}}
	if b.trace {
		lr, err := s.traced(ctx)
		if err != nil {
			return nil, err
		}
		lr.printSelf(b.out)
		path := filepath.Join(".bench_build", "perfbench-"+w.name+"-trace.json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := writeTrace(path, lr.traces); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(b.out, "spans written to %s\n", path)
		values := lr.metrics()
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{values[d.name], d.unit}
		}
	} else {
		hwm, err := procStatusMB("VmHWM")
		if err != nil {
			return nil, err
		}
		jobs := s.jobTimes()
		q, tailV := tail(jobs)
		wall, cpu, cycles := medianRound(all)
		values := map[string]float64{
			"setup_s": median(setups), "wall_s": wall, "cpu_s": cpu,
			"sim_cycles_per_s": float64(cycles) / wall, "job_p50_s": median(jobs), "job_tail_s": tailV,
			"peak_rss_mb": hwm,
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{values[d.name], d.unit}
		}
		fmt.Fprintf(b.out, "%s: %d rounds, %d jobs; setups %s s; timed walls %s s\n",
			w.name, n, len(jobs), fmtList(setups), fmtList(walls))
		fmt.Fprintf(b.out, "job_tail_s is p%d of %d jobs; VmRSS after set-up %.1f MB, VmHWM at end %.1f MB\n",
			q, len(jobs), rssSetup, hwm)
	}
	t := b.check.snapshot()
	res.Attempted, res.Failed = t.attempted, t.failed()
	res.Correct = t.failed() == 0
	fmt.Fprintf(b.out, "failed_frac %.4f: %d of %d operations (%d errors, %d refused, %d mismatched reports)\n",
		t.failedFrac(), t.failed(), t.attempted, t.errors, t.refused, t.mismatched)
	printMetrics(b.out, res.Metrics)
	return res, nil
}

// part is one timed piece of a round: a ProfileApps call, a ProfileApp
// call or the daemon's stream of jobs. cycles is the native simulated
// cycles it profiled.
type part struct {
	name      string
	wall, cpu float64
	cycles    uint64
}

// timed runs fn, which returns the cycles it profiled, as a part.
func timed(name string, fn func() uint64) part {
	ru, start := rusage(), time.Now()
	cycles := fn()
	return part{name: name, wall: time.Since(start).Seconds(), cpu: cpuDelta(ru, rusage()), cycles: cycles}
}

// medianRound is the round made of each part's median repetition, part by
// part: its wall and CPU seconds and its simulated cycles. The median keeps
// a repetition slowed by another tenant of a shared host out. The daemon
// runs all its rounds as one part, so for it this is the whole timed phase.
func medianRound(rounds [][]part) (wall, cpu float64, cycles uint64) {
	type reps struct {
		walls, cpus []float64
		cycles      uint64
	}
	byName := map[string]*reps{}
	for _, parts := range rounds {
		for _, p := range parts {
			r := byName[p.name]
			if r == nil {
				r = &reps{cycles: p.cycles}
				byName[p.name] = r
			}
			r.walls, r.cpus = append(r.walls, p.wall), append(r.cpus, p.cpu)
		}
	}
	for _, r := range byName {
		wall += median(r.walls)
		cpu += median(r.cpus)
		cycles += r.cycles
	}
	return wall, cpu, cycles
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-22s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
