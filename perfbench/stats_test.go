package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	gt "gputopdown"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTail(t *testing.T) {
	cases := []struct {
		n, q int
		v    float64
	}{
		{21, 52, 11}, // rank 11 leaves 10 above it
		{48, 79, 38}, // p80 would be rank 39, leaving only 9
		{100, 90, 90},
		{1000, 99, 990},
		{20, 50, 10},
		{19, 100, 19}, // p47 would leave 10 above, but is below the median
		{12, 100, 12},
		{10, 100, 10}, // no percentile leaves 10 above: maximum
		{0, 100, 0},
	}
	for _, c := range cases {
		if q, v := tail(seq(c.n)); q != c.q || v != c.v {
			t.Errorf("tail of %d samples = p%d %v, want p%d %v", c.n, q, v, c.q, c.v)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median %v", m)
	}
}

func TestCPUDelta(t *testing.T) {
	before := &syscall.Rusage{Utime: syscall.Timeval{Sec: 1, Usec: 500000}, Stime: syscall.Timeval{Usec: 250000}}
	after := &syscall.Rusage{Utime: syscall.Timeval{Sec: 3, Usec: 100000}, Stime: syscall.Timeval{Sec: 1, Usec: 50000}}
	if d := cpuDelta(before, after); !near(d, 2.4) {
		t.Errorf("cpu delta %v, want 2.4 (1.6 user + 0.8 system)", d)
	}
	// A real snapshot only moves forward.
	a := rusage()
	for end := time.Now().Add(20 * time.Millisecond); time.Now().Before(end); {
	}
	if d := cpuDelta(a, rusage()); d <= 0 {
		t.Errorf("busy loop used %v CPU seconds", d)
	}
}

func TestFailedFrac(t *testing.T) {
	tl := tally{attempted: 40, errors: 1, refused: 2, mismatched: 1}
	if tl.failed() != 4 || !near(tl.failedFrac(), 0.1) {
		t.Errorf("failed %d frac %v, want 4 and 0.1", tl.failed(), tl.failedFrac())
	}
	if (&tally{}).failedFrac() != 0 {
		t.Error("no attempts must give 0")
	}
}

// TestCheckerCounts feeds the checker a refused submission, a golden match,
// a golden mismatch and a digest mismatch.
func TestCheckerCounts(t *testing.T) {
	root := t.TempDir()
	k3 := profileKey{gpu: "gtx1070", suite: "s", app: "a", level: 3}
	dir := filepath.Join(root, goldenDir, k3.gpu)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "s__a.json"), []byte("{\"x\": 1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	c := newChecker(root, &out)
	for i := 0; i < 5; i++ {
		c.attempt()
	}
	c.fail("x", os.ErrClosed, true)
	if !c.bytes(k3, []byte("{\"x\": 1}\n")) {
		t.Fatalf("golden match reported as mismatch: %s", out.String())
	}
	if c.bytes(k3, []byte("{\"x\": 2}\n")) {
		t.Error("golden mismatch not reported")
	}
	k1 := profileKey{gpu: "gtx1070", suite: "s", app: "a", level: 1}
	if c.bytes(k1, []byte("{}")) {
		t.Error("level-1 report without a stored digest accepted")
	}
	got := c.snapshot()
	if got.attempted != 5 || got.refused != 1 || got.mismatched != 2 || got.failed() != 3 {
		t.Errorf("tally %+v", got)
	}
	if !bytes.Contains(out.Bytes(), []byte("$.x")) {
		t.Errorf("mismatch printed no diff line:\n%s", out.String())
	}
}

func TestSelfTimes(t *testing.T) {
	s := func(name string, parent int, start, end float64) span {
		return span{name: name, parent: parent,
			start: time.Duration(start * float64(time.Second)), end: time.Duration(end * float64(time.Second))}
	}
	spans := []span{
		s("bench.profile", -1, 0, 10),
		s("workloads.execute", 0, 1, 4),
		s("sim.launch", 1, 2, 3),
		s("cupti.profile", 0, 5, 9),
	}
	want := []float64{3, 2, 1, 4}
	for i, v := range selfTimes(spans) {
		if !near(v, want[i]) {
			t.Errorf("self of %s = %v, want %v", spans[i].name, v, want[i])
		}
	}
	self, total := selfByLayer([]*profileTrace{{spans: spans}, {spans: spans}})
	sum := 0.0
	for _, v := range self {
		sum += v
	}
	if !near(total, 20) || !near(sum, total) || !near(self["sim"], 2) {
		t.Errorf("layers %v total %v: shares must add up to the profiles", self, total)
	}
}

func TestReplayExtra(t *testing.T) {
	extra, frac := replayExtra(10, []launchCost{{passes: 9, native: 0.5}, {passes: 8, native: 0.25}})
	if !near(extra, 3.5) || !near(frac, 0.65) {
		t.Errorf("extra %v frac %v, want 3.5 and 0.65", extra, frac)
	}
	lr := &layerRun{traces: []*profileTrace{{
		spans:    []span{{name: "cupti.profile", parent: -1, end: 10 * time.Second}},
		launches: []launchCost{{passes: 9, native: 0.5}, {passes: 8, native: 0.25}},
	}}}
	m := lr.metrics()
	if !near(m["cupti.replay_extra_s"], 3.5) || m["cupti.passes"] != 17 || m["workloads.launches"] != 2 {
		t.Errorf("metrics %v", m)
	}
}

func TestRounds(t *testing.T) {
	for _, c := range []struct {
		seconds, nominal float64
		want             int
	}{{30, 10, 3}, {30, 7.5, 4}, {1, 10, 1}} {
		if got := rounds(c.seconds, c.nominal); got != c.want {
			t.Errorf("rounds(%v, %v) = %d, want %d", c.seconds, c.nominal, got, c.want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workloads and metrics the ones
// this program runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: listed %q, defined %q", i, w.Name, workloads[i].name)
		}
	}
	for _, set := range []struct {
		listed  []struct{ Name, Unit string }
		defined []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(set.listed) != len(set.defined) {
			t.Fatalf("%d metrics listed, %d defined", len(set.listed), len(set.defined))
		}
		for i, m := range set.listed {
			if m.Name != set.defined[i].name || m.Unit != set.defined[i].unit {
				t.Errorf("metric %d: listed %s [%s], defined %s [%s]", i, m.Name, m.Unit, set.defined[i].name, set.defined[i].unit)
			}
		}
	}
}

// TestTracedReportEqualsProfileApp runs the traced pipeline on the cheapest
// app and checks its canonical report against the root API's.
func TestTracedReportEqualsProfileApp(t *testing.T) {
	k := profileKey{gpu: "gtx1070", suite: "rodinia", app: "myocyte", level: 3}
	pt, err := traceProfile(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := gt.LookupGPU(k.gpu)
	app, err := gt.GetApp(k.suite, k.app)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gt.NewProfiler(spec).ProfileApp(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(res.Report(gt.Canonical()))
	got, _ := json.Marshal(pt.report)
	if !bytes.Equal(want, got) {
		t.Error("traced pipeline report differs from ProfileApp's")
	}
	if pt.cycles == 0 || pt.ticks == 0 || len(pt.launches) != 3 {
		t.Errorf("traced counts: cycles %d ticks %d launches %d", pt.cycles, pt.ticks, len(pt.launches))
	}
	// The native launches start from flushed caches, as replay passes do,
	// so they take the cycles the profiler counts as native.
	if pt.cycles != res.NativeCycles {
		t.Errorf("native launches took %d cycles, ProfileApp counts %d", pt.cycles, res.NativeCycles)
	}
}

func TestMoreSetups(t *testing.T) {
	for _, c := range []struct {
		done  int
		spent float64
		want  bool
	}{
		{0, 0, true}, {4, 10, true}, // always setupReps samples
		{5, 1.9, true}, {5, 2.1, false}, // then until setupSeconds
		{40, 1, true}, {41, 1, false}, // but at most setupMaxReps
	} {
		if got := moreSetups(c.done, c.spent); got != c.want {
			t.Errorf("moreSetups(%d, %v) = %v, want %v", c.done, c.spent, got, c.want)
		}
	}
}

func TestMedianRound(t *testing.T) {
	rounds := [][]part{
		{{name: "a", wall: 2, cpu: 3, cycles: 10}, {name: "b", wall: 5, cpu: 4, cycles: 7}},
		{{name: "a", wall: 3, cpu: 2.5, cycles: 10}, {name: "b", wall: 4, cpu: 4.5, cycles: 7}},
		{{name: "a", wall: 9, cpu: 9, cycles: 10}, {name: "b", wall: 4.5, cpu: 4.2, cycles: 7}},
	}
	wall, cpu, cycles := medianRound(rounds)
	if !near(wall, 7.5) || !near(cpu, 7.2) || cycles != 17 {
		t.Errorf("median round wall %v cpu %v cycles %d, want 7.5, 7.2, 17", wall, cpu, cycles)
	}
}

func TestWriteTrace(t *testing.T) {
	t0 := time.Now()
	sp := []span{{name: "bench.profile", parent: -1, end: 3 * time.Millisecond},
		{name: "sim.launch", parent: 0, start: time.Millisecond, end: 2 * time.Millisecond}}
	traces := []*profileTrace{{origin: t0.Add(time.Second), spans: sp}, {origin: t0, spans: sp}}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, traces); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Cat string
			Ts, Dur   float64
			Tid       int
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	ev := doc.TraceEvents
	if len(ev) != 4 || ev[1].Cat != "sim" || ev[1].Ts != 1e6+1e3 || ev[1].Dur != 1e3 || ev[2].Ts != 0 || ev[2].Tid != 2 {
		t.Errorf("events %+v", ev)
	}
}
