package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	gt "gputopdown"
)

// Daemon workload shape: a JobServer with daemonWorkers workers, driven by
// daemonClients closed-loop clients. A round is batchReps submissions of
// each pair; every bypassEvery-th job asks for replay_cache false, so it
// always simulates.
const (
	daemonWorkers = 2
	daemonClients = 2
	batchReps     = 4
	bypassEvery   = 4
	pollInterval  = 5 * time.Millisecond
)

// daemonPairs are small (app, GPU) pairs: one streaming launch, four sort
// launches and three particle-filter launches. No pair launches the same
// kernel on the same inputs twice, so every replay-cache hit a job records
// is one an earlier job cached: 0 while the runner builds a new Profiler per
// job.
var daemonPairs = []profileKey{
	{gpu: "gtx1070", suite: "altis", app: "where", level: 3},
	{gpu: "rtx4000", suite: "shoc", app: "sort", level: 3},
	{gpu: "rtx4000", suite: "altis", app: "particlefilter", level: 3},
}

type daemonJob struct {
	key   profileKey
	cache bool
}

// serveTimes accumulates the per-job serve-layer timings of a run.
type serveTimes struct {
	jobs                                   int
	submit, fetch, queueWait, run, pollOvh float64
}

type daemonSession struct {
	b       *bench
	srv     *gt.JobServer
	clients [daemonClients]*gt.JobClient
	// reg receives every profiler's metrics in traced runs; hits0 and
	// misses0 are its replay-cache counts after the warm-up round.
	reg            *gt.MetricsRegistry
	hits0, misses0 float64

	mu    sync.Mutex
	serve serveTimes
	wall  map[profileKey]float64 // first report's wall_seconds per pair
	lat   []float64              // timed jobs' latencies, submit to report
}

func openDaemon(ctx context.Context, b *bench) (session, error) {
	s := &daemonSession{b: b, wall: map[profileKey]float64{}}
	var base []gt.Option
	if b.trace {
		s.reg = gt.NewMetricsRegistry()
		base = append(base, gt.WithObserver(nil, s.reg))
	}
	runner := gt.NewJobRunner("rtx4000", base...)
	srv, err := gt.NewJobServer(gt.JobServerOptions{Runner: runner.Run, Workers: daemonWorkers})
	if err != nil {
		return nil, err
	}
	s.srv = srv
	if err := srv.Start("127.0.0.1:0"); err != nil {
		s.close()
		return nil, err
	}
	for i := range s.clients {
		s.clients[i] = &gt.JobClient{Base: "http://" + srv.Addr()}
	}
	// Warm-up round: each pair once with the replay cache on, so a daemon
	// whose cache works serves the timed phase from it.
	warm := make([]daemonJob, len(daemonPairs))
	for i, k := range daemonPairs {
		warm[i] = daemonJob{key: k, cache: true}
	}
	s.drive(ctx, warm, nil)
	s.serve = serveTimes{}
	if s.reg != nil {
		s.hits0, s.misses0 = s.cacheCounts()
	}
	return s, nil
}

// drive runs jobs through the closed loop: each client submits its next job
// only after the previous one's report arrived. lat receives each
// successful job's latency, submit to report.
func (s *daemonSession) drive(ctx context.Context, jobs []daemonJob, lat func(float64, *gt.JobReport)) {
	next := make(chan daemonJob, len(jobs))
	for _, j := range jobs {
		next <- j
	}
	close(next)
	var wg sync.WaitGroup
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *gt.JobClient) {
			defer wg.Done()
			for j := range next {
				if d, rep, ok := s.job(ctx, c, j); ok && lat != nil {
					lat(d, rep)
				}
			}
		}(c)
	}
	wg.Wait()
}

// job submits one job, waits for it and fetches and checks its report.
func (s *daemonSession) job(ctx context.Context, c *gt.JobClient, j daemonJob) (float64, *gt.JobReport, bool) {
	s.b.check.attempt()
	cache := j.cache
	req := &gt.JobRequest{Suite: j.key.suite, App: j.key.app, GPU: j.key.gpu, Level: j.key.level, ReplayCache: &cache}
	start := time.Now()
	st, err := c.Submit(ctx, req)
	submitted := time.Now()
	if err != nil {
		// The client reports the HTTP status only in the error's text; 503
		// is the daemon refusing the job (queue full or draining).
		s.b.check.fail("submit "+j.key.String(), err, strings.Contains(err.Error(), "(HTTP 503)"))
		return 0, nil, false
	}
	st, err = c.Wait(ctx, st.ID, pollInterval)
	if err != nil {
		s.b.check.fail("job "+j.key.String(), err, false)
		return 0, nil, false
	}
	fetch := time.Now()
	rep, err := c.Report(ctx, st.ID)
	end := time.Now()
	if err != nil {
		s.b.check.fail("report "+j.key.String(), err, false)
		return 0, nil, false
	}
	s.b.check.report(j.key, rep)
	latency := end.Sub(start).Seconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.wall[j.key]; !ok {
		s.wall[j.key] = rep.WallSeconds
	}
	if st.StartedAt != nil && st.FinishedAt != nil {
		s.serve.jobs++
		s.serve.submit += submitted.Sub(start).Seconds()
		s.serve.fetch += end.Sub(fetch).Seconds()
		s.serve.queueWait += st.StartedAt.Sub(st.SubmittedAt).Seconds()
		s.serve.run += st.FinishedAt.Sub(*st.StartedAt).Seconds()
		s.serve.pollOvh += latency - st.FinishedAt.Sub(st.SubmittedAt).Seconds()
	}
	return latency, rep, true
}

// run submits the n rounds' jobs in shuffled order as one stream, so the
// clients never wait for each other between rounds, and times the whole
// stream as one part: the job store grows throughout it.
func (s *daemonSession) run(ctx context.Context, n int) ([][]part, error) {
	var keys []profileKey
	for r := 0; r < n*batchReps; r++ {
		keys = append(keys, daemonPairs...)
	}
	keys = s.b.shuffled(keys)
	batch := make([]daemonJob, len(keys))
	for i, k := range keys {
		batch[i] = daemonJob{key: k, cache: (i+1)%bypassEvery != 0}
	}
	runtime.GC()
	p := timed("jobs", func() (cycles uint64) {
		s.drive(ctx, batch, func(d float64, rep *gt.JobReport) {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.lat = append(s.lat, d)
			cycles += rep.NativeCycles
		})
		return cycles
	})
	return [][]part{{p}}, nil
}

// jobTimes returns the latency of every timed job.
func (s *daemonSession) jobTimes() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.lat...)
}

// cacheCounts reads the replay-cache hit and miss counters every profiler
// of the daemon's runner reports into.
func (s *daemonSession) cacheCounts() (hits, misses float64) {
	return s.reg.Counter("profiler_replay_cache_hits_total", "", nil).Value(),
		s.reg.Counter("profiler_replay_cache_misses_total", "", nil).Value()
}

// traced reports the daemon's serve-layer timings and replay-cache counts
// from the rounds already run, and traces each pair once through the
// composed pipeline for the layers below the daemon.
func (s *daemonSession) traced(ctx context.Context) (*layerRun, error) {
	traces, err := traceProfiles(ctx, daemonPairs, 1)
	if err != nil {
		return nil, err
	}
	hits, misses := s.cacheCounts()
	tl := s.b.check.snapshot()
	n := float64(s.serve.jobs)
	lr := &layerRun{traces: traces, daemon: map[string]float64{
		"cupti.cache_hits":      hits - s.hits0,
		"cupti.cache_misses":    misses - s.misses0,
		"serve.submit_s":        ratio(s.serve.submit, n),
		"serve.report_fetch_s":  ratio(s.serve.fetch, n),
		"serve.queue_wait_s":    ratio(s.serve.queueWait, n),
		"serve.run_s":           ratio(s.serve.run, n),
		"serve.poll_overhead_s": ratio(s.serve.pollOvh, n),
		"serve.refused":         float64(tl.refused),
	}}
	for _, t := range traces {
		s.b.check.attempt()
		if s.b.check.report(t.key, t.report) {
			lr.matched++
		}
		lr.untracedWall += s.wall[t.key]
	}
	return lr, nil
}

func (s *daemonSession) close() {
	if s.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.srv.Drain(ctx); err != nil {
		fmt.Fprintf(s.b.out, "daemon drain: %v\n", err)
	}
}
