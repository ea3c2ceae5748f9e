package main

import (
	"context"
	"fmt"
	"runtime"

	gt "gputopdown"
)

// gpus are the two evaluation models, in the order a sweep visits them.
var gpus = []string{"gtx1070", "rtx4000"}

// warmApp is profiled once per GPU model during set-up, so lazy
// initialisation is paid before timing; it is the cheapest suite app.
var warmApp = [2]string{"rodinia", "myocyte"}

// libSession drives the root API directly: Profiler.ProfileApps per GPU
// model for a sweep, or one Profiler.ProfileApp call after another.
type libSession struct {
	b     *bench
	sweep bool
	keys  []profileKey
	profs map[string]*gt.Profiler
	// order is the most recent round's profile order and wall the
	// untraced wall seconds of each profile in it. lat holds every
	// round's latency of each profile.
	order []profileKey
	wall  map[profileKey]float64
	lat   map[profileKey][]float64
}

func openLibrary(level int, sweep bool, apps [][3]string) func(context.Context, *bench) (session, error) {
	return func(ctx context.Context, b *bench) (session, error) {
		s := &libSession{b: b, sweep: sweep, profs: map[string]*gt.Profiler{},
			wall: map[profileKey]float64{}, lat: map[profileKey][]float64{}}
		for _, a := range apps {
			s.keys = append(s.keys, profileKey{gpu: a[2], suite: a[0], app: a[1], level: level})
		}
		for _, g := range gpus {
			spec, _ := gt.LookupGPU(g)
			p, err := gt.NewProfilerE(spec, gt.WithLevel(level))
			if err != nil {
				return nil, err
			}
			s.profs[g] = p
			k := profileKey{gpu: g, suite: warmApp[0], app: warmApp[1], level: level}
			if _, err := s.profile(ctx, k); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", k, err)
			}
		}
		return s, nil
	}
}

// profile runs one ProfileApp call and checks its report. A failed profile
// is counted and returns a nil result; err is for an app that does not
// resolve.
func (s *libSession) profile(ctx context.Context, k profileKey) (*gt.AppResult, error) {
	s.b.check.attempt()
	app, err := gt.GetApp(k.suite, k.app)
	if err != nil {
		return nil, err
	}
	res, err := s.profs[k.gpu].ProfileApp(ctx, app)
	if err != nil {
		s.b.check.fail(k.String(), err, false)
		return nil, nil
	}
	s.b.check.report(k, res.Report())
	return res, nil
}

func (s *libSession) run(ctx context.Context, n int) ([][]part, error) {
	var all [][]part
	for r := 0; r < n; r++ {
		runtime.GC()
		parts, err := s.round(ctx)
		if err != nil {
			return nil, err
		}
		all = append(all, parts)
	}
	return all, nil
}

func (s *libSession) round(ctx context.Context) (parts []part, err error) {
	s.order = s.b.shuffled(s.keys)
	if !s.sweep {
		for _, k := range s.order {
			var res *gt.AppResult
			p := timed(k.String(), func() uint64 {
				if res, err = s.profile(ctx, k); res == nil {
					return 0
				}
				return res.NativeCycles
			})
			if err != nil {
				return nil, err
			}
			parts = append(parts, p)
			if res != nil {
				s.lat[k] = append(s.lat[k], p.wall)
				s.wall[k] = res.WallSeconds
			}
		}
		return parts, nil
	}
	// A sweep profiles one GPU model's apps at a time through ProfileApps,
	// in the shuffled order; the models' order stays fixed.
	for _, g := range gpus {
		keys := byGPU(s.order, g)
		apps := make([]*gt.App, len(keys))
		for i, k := range keys {
			if apps[i], err = gt.GetApp(k.suite, k.app); err != nil {
				return nil, err
			}
		}
		var results []*gt.AppResult
		var perr error
		parts = append(parts, timed("ProfileApps "+g, func() (cycles uint64) {
			results, perr = s.profs[g].ProfileApps(ctx, apps)
			for _, res := range results {
				if res != nil {
					cycles += res.NativeCycles
				}
			}
			return cycles
		}))
		for i, res := range results {
			k := keys[i]
			s.b.check.attempt()
			if res == nil {
				s.b.check.fail(k.String(), perr, false)
				continue
			}
			s.b.check.report(k, res.Report())
			s.lat[k] = append(s.lat[k], res.WallSeconds)
			s.wall[k] = res.WallSeconds
		}
	}
	return parts, nil
}

// jobTimes returns each profile's median latency over the rounds: one
// ProfileApp call, or an app's WallSeconds within a sweep. A profile is a
// job, and the median keeps one slowed repetition from making the tail.
func (s *libSession) jobTimes() []float64 {
	var out []float64
	for _, xs := range s.lat {
		out = append(out, median(xs))
	}
	return out
}

// byGPU returns the keys of one GPU model, keeping their order.
func byGPU(keys []profileKey, g string) []profileKey {
	var out []profileKey
	for _, k := range keys {
		if k.gpu == g {
			out = append(out, k)
		}
	}
	return out
}

// traced profiles the last round's order through the traced pipeline: a
// sweep on ProfileApps' worker count, one model at a time; otherwise one
// profile after another.
func (s *libSession) traced(ctx context.Context) (*layerRun, error) {
	lr := &layerRun{}
	groups := [][]profileKey{s.order}
	workers := 1
	if s.sweep {
		groups = [][]profileKey{byGPU(s.order, gpus[0]), byGPU(s.order, gpus[1])}
		workers = runtime.NumCPU()
	}
	for _, keys := range groups {
		traces, err := traceProfiles(ctx, keys, workers)
		if err != nil {
			return nil, err
		}
		for _, t := range traces {
			s.b.check.attempt()
			if s.b.check.report(t.key, t.report) {
				lr.matched++
			}
			lr.untracedWall += s.wall[t.key]
		}
		lr.traces = append(lr.traces, traces...)
	}
	return lr, nil
}

func (s *libSession) close() {}
