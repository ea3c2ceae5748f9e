package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	gt "gputopdown"
	"gputopdown/internal/check"
	"gputopdown/internal/core"
	"gputopdown/internal/cupti"
	"gputopdown/internal/kernel"
	"gputopdown/internal/sim"
)

// The traced run composes the profiling pipeline from each layer's public
// functions, the way Profiler.ProfileApp does at its defaults (SMPC mode,
// sequential replay, fast-forward on, no replay cache), and records a span
// around every call into a layer. Per launch it adds what the layers are
// measured with: a snapshot, a hash, a flush, one native launch and a
// restore on the live device before the launch is profiled. Its reports must
// equal the untraced run's, which shows the extra calls perturb nothing.

// span is one timed call into a layer. name is "<layer>.<operation>".
type span struct {
	name       string
	parent     int // index of the enclosing span; -1 for a root
	start, end time.Duration
}

func (s span) seconds() float64 { return (s.end - s.start).Seconds() }

// layer is the module a span's call went into.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.name, ".")
	return l
}

// recorder keeps one goroutine's spans in memory.
type recorder struct {
	origin time.Time
	spans  []span
	open   int
}

func newRecorder() *recorder { return &recorder{origin: time.Now(), open: -1} }

func (r *recorder) begin(name string) int {
	r.spans = append(r.spans, span{name: name, parent: r.open, start: time.Since(r.origin)})
	r.open = len(r.spans) - 1
	return r.open
}

// end closes span i and returns its duration in seconds.
func (r *recorder) end(i int) float64 {
	r.spans[i].end = time.Since(r.origin)
	r.open = r.spans[i].parent
	return r.spans[i].seconds()
}

// selfTimes returns each span's duration minus the time its child spans
// cover. Children of one span run one after another on its goroutine, so
// they never overlap.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.seconds()
		if s.parent >= 0 {
			self[s.parent] -= s.seconds()
		}
	}
	return self
}

// launchCost is one profiled launch: the passes its profile replayed and the
// wall time of its one native launch.
type launchCost struct {
	passes int
	native float64
}

// replayExtra is the profile time not explained by simulating each launch
// once per pass: profile − Σ passes·native. simFrac is the explained share.
func replayExtra(profile float64, launches []launchCost) (extra, simFrac float64) {
	sim := 0.0
	for _, l := range launches {
		sim += float64(l.passes) * l.native
	}
	if profile > 0 {
		simFrac = sim / profile
	}
	return profile - sim, simFrac
}

// profileTrace is the outcome of one traced profile.
type profileTrace struct {
	key      profileKey
	origin   time.Time // spans' time zero
	spans    []span
	launches []launchCost
	report   *gt.JobReport

	cycles, ticks, activeSMCycles, warpInsts uint64
	snapBytes, reportBytes                   int
	native, profiled                         uint64
}

// traceProfile profiles one app through the composed pipeline.
func traceProfile(ctx context.Context, k profileKey) (*profileTrace, error) {
	spec, ok := gt.LookupGPU(k.gpu)
	if !ok {
		return nil, fmt.Errorf("unknown gpu %q", k.gpu)
	}
	app, err := gt.GetApp(k.suite, k.app)
	if err != nil {
		return nil, err
	}
	pt := &profileTrace{key: k}
	rec := newRecorder()
	root := rec.begin("bench.profile")

	sp := rec.begin("sim.device_new")
	dev := sim.NewDeviceMem(spec, sim.DefaultMemBytes)
	rec.end(sp)
	analyzer := core.NewAnalyzer(spec, k.level)
	request, err := analyzer.CounterRequest()
	if err != nil {
		return nil, err
	}
	sess, err := cupti.NewSession(dev, request, cupti.ModeSMPC)
	if err != nil {
		return nil, err
	}
	res := &gt.AppResult{App: app.Name, Suite: app.Suite, GPU: spec.Name, Passes: sess.NumPasses()}

	ex := rec.begin("workloads.execute")
	err = app.Execute(dev, func(l *kernel.Launch) error {
		sp := rec.begin("mem.snapshot")
		snap := dev.Storage.Snapshot()
		rec.end(sp)
		sp = rec.begin("mem.hash")
		dev.Storage.HashAllocated()
		rec.end(sp)
		// Every replay pass starts from flushed caches; so does the
		// native launch, so that it is the launch each pass repeats.
		sp = rec.begin("sim.flush")
		dev.FlushCaches()
		rec.end(sp)
		sp = rec.begin("sim.launch")
		nat, err := dev.Launch(l)
		native := rec.end(sp)
		if err != nil {
			return err
		}
		pt.cycles += nat.Cycles
		pt.ticks += dev.LastLaunchTicks()
		pt.activeSMCycles += nat.Counters.ActiveCycles
		pt.warpInsts += nat.Counters.InstExecuted
		pt.snapBytes += len(snap)
		sp = rec.begin("mem.restore")
		dev.Storage.Restore(snap)
		rec.end(sp)

		sp = rec.begin("cupti.profile")
		kr, err := sess.ProfileCtx(ctx, l)
		rec.end(sp)
		if err != nil {
			return err
		}
		pt.launches = append(pt.launches, launchCost{passes: kr.Passes, native: native})
		sp = rec.begin("core.analyze")
		a := analyzer.Analyze(kr.Kernel, kr.Values)
		rec.end(sp)
		a.Weight = float64(kr.Cycles)
		res.Kernels = append(res.Kernels, gt.KernelResult{
			Kernel: kr.Kernel, Invocation: kr.Invocation, Cycles: kr.Cycles, Analysis: a})
		return nil
	})
	rec.end(ex)
	if err != nil {
		return nil, err
	}

	sp = rec.begin("core.aggregate")
	analyses := make([]*core.Analysis, len(res.Kernels))
	for i := range res.Kernels {
		analyses[i] = res.Kernels[i].Analysis
	}
	res.Aggregate = core.Aggregate(app.Name, analyses)
	rec.end(sp)
	res.NativeCycles, res.ProfiledCycles = sess.Overhead()
	pt.native, pt.profiled = res.NativeCycles, res.ProfiledCycles

	sp = rec.begin("report.render")
	pt.report = res.Report(gt.Canonical())
	data, err := check.ReportJSON(pt.report)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	pt.reportBytes = len(data)
	rec.end(root)
	pt.origin, pt.spans = rec.origin, rec.spans
	return pt, nil
}

// traceProfiles traces keys in order on the given number of goroutines,
// each taking the next key when it is free, as Profiler.ProfileApps does.
func traceProfiles(ctx context.Context, keys []profileKey, workers int) ([]*profileTrace, error) {
	out := make([]*profileTrace, len(keys))
	errs := make([]error, len(keys))
	next := make(chan int, len(keys))
	for i := range keys {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = traceProfile(ctx, keys[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("traced %s: %w", keys[i], err)
		}
	}
	return out, nil
}

// layerRun sums the traced profiles of one round of a workload.
type layerRun struct {
	traces []*profileTrace
	// untracedWall is the untraced wall seconds of the same profiles
	// (AppResult.WallSeconds or the daemon report's wall_seconds).
	untracedWall float64
	// matched counts traced reports equal to their reference, the one the
	// untraced run's reports are checked against.
	matched int
	// daemon holds the replay-cache and serve-layer metrics of a
	// daemon-resubmit run; they are 0 for the library workloads, which
	// run neither.
	daemon map[string]float64
}

// totalSeconds sums span durations by name.
func totalSeconds(traces []*profileTrace) map[string]float64 {
	sum := map[string]float64{}
	for _, t := range traces {
		for _, s := range t.spans {
			sum[s.name] += s.seconds()
		}
	}
	return sum
}

// selfByLayer sums span self times by layer, and returns the summed root
// (whole-profile) durations they add up to.
func selfByLayer(traces []*profileTrace) (self map[string]float64, total float64) {
	self = map[string]float64{}
	for _, t := range traces {
		st := selfTimes(t.spans)
		for i, s := range t.spans {
			self[s.layer()] += st[i]
			if s.parent < 0 {
				total += s.seconds()
			}
		}
	}
	return self, total
}

// metrics returns the per-layer metrics of one round of traced profiles.
// Times are seconds summed over the round's profiles.
func (lr *layerRun) metrics() map[string]float64 {
	tot := totalSeconds(lr.traces)
	selfL, _ := selfByLayer(lr.traces)
	var launches []launchCost
	var passes, cycles, ticks, active, insts, native, profiled uint64
	var snapBytes, reportBytes int
	for _, t := range lr.traces {
		launches = append(launches, t.launches...)
		for _, l := range t.launches {
			passes += uint64(l.passes)
		}
		cycles += t.cycles
		ticks += t.ticks
		active += t.activeSMCycles
		insts += t.warpInsts
		native += t.native
		profiled += t.profiled
		snapBytes += t.snapBytes
		reportBytes += t.reportBytes
	}
	extra, simFrac := replayExtra(tot["cupti.profile"], launches)
	m := map[string]float64{
		"cupti.profile_s":      tot["cupti.profile"],
		"cupti.passes":         float64(passes),
		"cupti.replay_extra_s": extra,
		"cupti.sim_frac":       simFrac,
		"cupti.overhead_x":     ratio(float64(profiled), float64(native)),

		"sim.device_new_s":      tot["sim.device_new"],
		"sim.launch_s":          tot["sim.launch"],
		"sim.flush_s":           tot["sim.flush"],
		"sim.cycles":            float64(cycles),
		"sim.ticks":             float64(ticks),
		"sim.ff_skip_frac":      1 - ratio(float64(ticks), float64(active)),
		"sim.warp_insts":        float64(insts),
		"sim.warp_insts_per_s":  ratio(float64(insts), tot["sim.launch"]),
		"sim.ns_per_tick":       ratio(tot["sim.launch"]*1e9, float64(ticks)),
		"mem.snapshot_s":        tot["mem.snapshot"],
		"mem.hash_s":            tot["mem.hash"],
		"mem.restore_s":         tot["mem.restore"],
		"mem.snapshot_mb":       float64(snapBytes) / (1 << 20),
		"workloads.setup_s":     selfL["workloads"],
		"workloads.launches":    float64(len(launches)),
		"core.analyze_s":        tot["core.analyze"],
		"core.aggregate_s":      tot["core.aggregate"],
		"report.render_s":       tot["report.render"],
		"report.kb":             float64(reportBytes) / 1024,
		"cupti.cache_hits":      0,
		"cupti.cache_misses":    0,
		"serve.submit_s":        0,
		"serve.report_fetch_s":  0,
		"serve.queue_wait_s":    0,
		"serve.run_s":           0,
		"serve.poll_overhead_s": 0,
		"serve.refused":         0,
	}
	for k, v := range lr.daemon {
		m[k] = v
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printSelf writes each layer's self time and its share of the traced
// profiles' total, plus the tracing overhead against the untraced run.
func (lr *layerRun) printSelf(w io.Writer) {
	self, total := selfByLayer(lr.traces)
	names := make([]string, 0, len(self))
	for l := range self {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "self time by layer over %d traced profiles (%.3f s):\n", len(lr.traces), total)
	for _, l := range names {
		fmt.Fprintf(w, "  %-10s %9.4f s %6.2f %%\n", l, self[l], 100*ratio(self[l], total))
	}
	m := lr.metrics()
	fmt.Fprintf(w, "  cupti = %.4f s simulating passes x native launch + %.4f s replay extra\n",
		m["cupti.profile_s"]-m["cupti.replay_extra_s"], m["cupti.replay_extra_s"])
	fmt.Fprintf(w, "traced reports equal to their reference, as the untraced ones are: %d of %d\n", lr.matched, len(lr.traces))
	fmt.Fprintf(w, "tracing overhead: traced %.3f s vs untraced %.3f s (%.3fx); the traced pipeline adds one native launch per kernel\n",
		total, lr.untracedWall, ratio(total, lr.untracedWall))
}

// writeTrace writes the spans as Chrome trace events (chrome://tracing,
// Perfetto), one thread per traced profile.
func writeTrace(path string, traces []*profileTrace) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	if len(traces) == 0 {
		return nil
	}
	zero := traces[0].origin
	for _, t := range traces {
		if t.origin.Before(zero) {
			zero = t.origin
		}
	}
	var events []event
	for i, t := range traces {
		off := t.origin.Sub(zero)
		for _, s := range t.spans {
			e := event{Name: s.name, Cat: s.layer(), Ph: "X", Pid: 1, Tid: i + 1,
				Ts: float64((off + s.start).Nanoseconds()) / 1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3}
			if s.parent < 0 {
				e.Args = map[string]string{"profile": t.key.String()}
			}
			events = append(events, e)
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
