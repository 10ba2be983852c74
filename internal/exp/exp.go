// Package exp implements the paper's experiments end to end: each table
// and figure of the evaluation section is a method on a Suite that lazily
// builds and caches the expensive shared state (baseline flow runs, the
// trained evaluator) so one process can regenerate everything.
package exp

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"

	"tsteiner/internal/core"
	"tsteiner/internal/flow"
	"tsteiner/internal/gnn"
	"tsteiner/internal/metrics"
	"tsteiner/internal/obs"
	"tsteiner/internal/par"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/synth"
	"tsteiner/internal/train"
)

// Config parameterizes a full experiment run.
type Config struct {
	// Scale shrinks every benchmark (1.0 = the paper's sizes).
	Scale float64
	// Designs restricts the benchmark set (nil = all ten).
	Designs []string
	Flow    flow.Config
	GNN     gnn.Config
	Train   train.Options
	Refine  core.Options
	// AugmentVariants perturbed copies per training design teach the
	// evaluator the position→timing derivative.
	AugmentVariants int
	AugmentDist     float64
	// RandomTrials per design for the Fig. 2 / Fig. 5 random-move
	// experiments (the paper uses 10–50); LargeDesignTrials bounds the
	// two biggest designs.
	RandomTrials      int
	LargeDesignTrials int
	Seed              int64
	// Workers bounds the goroutines used by the parallel stages (baseline
	// flow runs, augmentation labeling, random-move trials, per-design
	// TSteiner runs); 0 = GOMAXPROCS, 1 = serial. Every table and figure
	// is byte-identical for every worker count — Workers only changes the
	// wall clock.
	Workers int
	// Log receives progress lines (nil = silent).
	Log func(format string, args ...any)
	// Obs receives phase spans, refinement/training traces and worker
	// utilization for every experiment (nil = telemetry off). Propagated
	// into Flow.Obs and Train.Obs unless those are already set. A strict
	// side channel: tables and figures are byte-identical either way.
	Obs *obs.Sink
	// CheckpointDir, when non-empty, makes the suite write CRC-checksummed
	// checkpoints: one for evaluator training, one per design for the
	// TSteiner refinement runs. With Resume set, valid checkpoints found
	// there are restored — the suite's tables stay byte-identical to an
	// uninterrupted run.
	CheckpointDir string
	Resume        bool
}

// Default returns the full-scale configuration.
func Default() Config {
	return Config{
		Scale:             1.0,
		Flow:              flow.DefaultConfig(),
		GNN:               gnn.DefaultConfig(),
		Train:             train.DefaultOptions(),
		Refine:            core.DefaultOptions(),
		AugmentVariants:   2,
		AugmentDist:       10,
		RandomTrials:      10,
		LargeDesignTrials: 3,
		Seed:              2023,
	}
}

// Suite caches shared experiment state.
type Suite struct {
	cfg     Config
	specs   []synth.Spec
	samples map[string]*train.Sample
	model   *gnn.Model
	// tsRuns caches per-design TSteiner outcomes (shared by Tables II/IV
	// and Fig. 5).
	tsRuns map[string]*tsRun
	// randomRuns caches RandomMoves trials keyed by design and trial
	// count (shared by Fig. 2 and Fig. 5).
	randomRuns map[string]*randomRun
}

type randomRun struct {
	wns, tns []float64
}

type tsRun struct {
	refine *core.Result
	report *flow.Report
}

// NewSuite validates the config and resolves the benchmark list.
func NewSuite(cfg Config) (*Suite, error) {
	if cfg.Scale <= 0 || cfg.Scale > 1 {
		return nil, fmt.Errorf("exp: scale %g out of (0,1]", cfg.Scale)
	}
	if cfg.Flow.Workers == 0 {
		cfg.Flow.Workers = cfg.Workers
	}
	if cfg.Flow.Obs == nil {
		cfg.Flow.Obs = cfg.Obs
	}
	if cfg.Train.Obs == nil {
		cfg.Train.Obs = cfg.Obs
	}
	if cfg.CheckpointDir != "" && cfg.Train.CheckpointPath == "" {
		cfg.Train.CheckpointPath = filepath.Join(cfg.CheckpointDir, "train.ckpt")
		cfg.Train.Resume = cfg.Resume
	}
	all := synth.Benchmarks()
	var specs []synth.Spec
	if len(cfg.Designs) == 0 {
		specs = all
	} else {
		for _, want := range cfg.Designs {
			s, err := synth.BenchmarkByName(want)
			if err != nil {
				return nil, err
			}
			specs = append(specs, s)
		}
	}
	return &Suite{
		cfg:        cfg,
		specs:      specs,
		samples:    map[string]*train.Sample{},
		tsRuns:     map[string]*tsRun{},
		randomRuns: map[string]*randomRun{},
	}, nil
}

func (s *Suite) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log(format, args...)
	}
}

// Specs returns the active benchmark list.
func (s *Suite) Specs() []synth.Spec { return s.specs }

// Sample lazily builds the baseline flow record of one design.
func (s *Suite) Sample(name string) (*train.Sample, error) {
	if got, ok := s.samples[name]; ok {
		return got, nil
	}
	spec, err := synth.BenchmarkByName(name)
	if err != nil {
		return nil, err
	}
	s.logf("building baseline sample %s (scale %.2f)", name, s.cfg.Scale)
	smp, err := train.BuildSample(name, s.cfg.Scale, spec.Train, s.cfg.Flow)
	if err != nil {
		return nil, err
	}
	s.samples[name] = smp
	return smp, nil
}

// BuildSamples builds the baseline flow records of the named designs on
// s.cfg.Workers goroutines (each design's flow run is independent, so the
// records are byte-identical for any worker count). Parallel tasks only
// compute; the cache writes happen serially afterwards.
func (s *Suite) BuildSamples(names []string) error {
	var missing []string
	for _, n := range names {
		if _, ok := s.samples[n]; !ok {
			missing = append(missing, n)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	s.logf("building %d baseline samples on %d workers", len(missing), par.Workers(s.cfg.Workers))
	built, err := par.Map(s.cfg.Workers, missing, func(_ int, name string) (*train.Sample, error) {
		spec, err := synth.BenchmarkByName(name)
		if err != nil {
			return nil, err
		}
		return train.BuildSample(name, s.cfg.Scale, spec.Train, s.cfg.Flow)
	})
	if err != nil {
		return err
	}
	for i, name := range missing {
		s.samples[name] = built[i]
	}
	return nil
}

// Model lazily trains the evaluator on the training split (plus perturbed
// augmentation variants).
func (s *Suite) Model() (*gnn.Model, error) {
	if s.model != nil {
		return s.model, nil
	}
	names := make([]string, len(s.specs))
	for i, spec := range s.specs {
		names[i] = spec.Name
	}
	if err := s.BuildSamples(names); err != nil {
		return nil, err
	}
	var all []*train.Sample
	for _, spec := range s.specs {
		smp, err := s.Sample(spec.Name)
		if err != nil {
			return nil, err
		}
		all = append(all, smp)
		if spec.Train && s.cfg.AugmentVariants > 0 {
			s.logf("augmenting %s with %d perturbed variants", spec.Name, s.cfg.AugmentVariants)
			aug, err := train.Augment(smp, s.cfg.AugmentVariants, s.cfg.AugmentDist, s.cfg.Seed+int64(len(all)), s.cfg.Workers)
			if err != nil {
				return nil, err
			}
			all = append(all, aug...)
		}
	}
	m := gnn.NewModel(s.cfg.GNN, s.cfg.Seed)
	opt := s.cfg.Train
	if opt.Verbose == nil && s.cfg.Log != nil {
		opt.Verbose = func(ep int, loss float64) {
			if ep%10 == 0 {
				s.logf("train epoch %d loss %.5f", ep, loss)
			}
		}
	}
	s.logf("training evaluator on %d samples", len(all))
	if _, err := train.Train(m, all, opt); err != nil {
		return nil, err
	}
	s.model = m
	return m, nil
}

// runTSteiner executes refinement + sign-off for one prepared sample using
// the given model. The model is used read-only in value terms, but Forward
// re-tapes its parameter tensors — concurrent callers must pass their own
// gnn.Model clone.
func (s *Suite) runTSteiner(smp *train.Sample, m *gnn.Model) (*tsRun, error) {
	opt := s.cfg.Refine
	if s.cfg.CheckpointDir != "" && opt.CheckpointPath == "" {
		// One checkpoint per design: refinement runs fan out in parallel
		// and must never share a file.
		opt.CheckpointPath = filepath.Join(s.cfg.CheckpointDir, "refine-"+smp.Name+".ckpt")
		opt.Resume = s.cfg.Resume
	}
	ref, err := core.NewRefiner(m, smp.Batch, smp.Prepared, opt)
	if err != nil {
		return nil, err
	}
	res, err := ref.Refine()
	if err != nil {
		return nil, err
	}
	rep, err := flow.Signoff(smp.Prepared, res.Forest)
	if err != nil {
		return nil, err
	}
	rep.TSteinerSec = res.RuntimeSec
	return &tsRun{refine: res, report: rep}, nil
}

// TSteiner lazily runs refinement + sign-off for one design.
func (s *Suite) TSteiner(name string) (*core.Result, *flow.Report, error) {
	if got, ok := s.tsRuns[name]; ok {
		return got.refine, got.report, nil
	}
	smp, err := s.Sample(name)
	if err != nil {
		return nil, nil, err
	}
	m, err := s.Model()
	if err != nil {
		return nil, nil, err
	}
	s.logf("refining %s", name)
	run, err := s.runTSteiner(smp, m)
	if err != nil {
		return nil, nil, err
	}
	s.tsRuns[name] = run
	return run.refine, run.report, nil
}

// BuildTSRuns runs refinement + sign-off for the named designs on
// s.cfg.Workers goroutines. Refinement is deterministic given the trained
// parameters and each task refines its own value-identical model clone, so
// the cached outcomes are byte-identical for any worker count. Parallel
// tasks only compute; the cache writes happen serially afterwards.
func (s *Suite) BuildTSRuns(names []string) error {
	var missing []string
	for _, n := range names {
		if _, ok := s.tsRuns[n]; !ok {
			missing = append(missing, n)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	if err := s.BuildSamples(missing); err != nil {
		return err
	}
	m, err := s.Model()
	if err != nil {
		return err
	}
	s.logf("refining %d designs on %d workers", len(missing), par.Workers(s.cfg.Workers))
	runs, err := par.Map(s.cfg.Workers, missing, func(_ int, name string) (*tsRun, error) {
		smp, ok := s.samples[name]
		if !ok {
			return nil, fmt.Errorf("exp: sample %s not prebuilt", name)
		}
		return s.runTSteiner(smp, m.Clone())
	})
	if err != nil {
		return err
	}
	for i, name := range missing {
		s.tsRuns[name] = runs[i]
	}
	return nil
}

// randomTrials returns the trial count for a design (bounded for the two
// largest benchmarks).
func (s *Suite) randomTrials(spec synth.Spec) int {
	if spec.Cells >= 40000 && s.cfg.LargeDesignTrials > 0 {
		return s.cfg.LargeDesignTrials
	}
	return s.cfg.RandomTrials
}

// RandomMoves runs k random-disturbance sign-off trials for one design and
// returns the WNS and TNS ratios to the baseline (Fig. 2 / Fig. 5 data).
func (s *Suite) RandomMoves(name string, k int) (wnsRatios, tnsRatios []float64, err error) {
	key := fmt.Sprintf("%s/%d", name, k)
	if got, ok := s.randomRuns[key]; ok {
		return got.wns, got.tns, nil
	}
	smp, err := s.Sample(name)
	if err != nil {
		return nil, nil, err
	}
	// The perturbed forests are drawn serially from one seeded stream (the
	// geometry matches the historical serial loop exactly); only the
	// independent sign-off runs fan out across workers, so the ratios are
	// byte-identical for any worker count.
	rng := rand.New(rand.NewSource(s.cfg.Seed + int64(len(name))))
	forests := make([]*rsmt.Forest, k)
	for trial := 0; trial < k; trial++ {
		f := smp.Prepared.Forest.Clone()
		rsmt.Perturb(f, rng, s.cfg.AugmentDist, smp.Prepared.Design.Die)
		forests[trial] = f
	}
	type ratios struct{ wns, tns float64 }
	out, err := par.Map(s.cfg.Workers, forests, func(_ int, f *rsmt.Forest) (ratios, error) {
		rep, err := flow.Signoff(smp.Prepared, f)
		if err != nil {
			return ratios{}, err
		}
		return ratios{
			wns: metrics.Ratio(rep.WNS, smp.Baseline.WNS),
			tns: metrics.Ratio(rep.TNS, smp.Baseline.TNS),
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, r := range out {
		wnsRatios = append(wnsRatios, r.wns)
		tnsRatios = append(tnsRatios, r.tns)
	}
	s.randomRuns[key] = &randomRun{wns: wnsRatios, tns: tnsRatios}
	return wnsRatios, tnsRatios, nil
}

// sortedNames returns the suite's design names, training split first (the
// paper's table order).
func (s *Suite) sortedNames() []string {
	specs := append([]synth.Spec(nil), s.specs...)
	sort.SliceStable(specs, func(i, j int) bool {
		if specs[i].Train != specs[j].Train {
			return specs[i].Train
		}
		return false // keep canonical order within each split
	})
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.Name
	}
	return names
}
