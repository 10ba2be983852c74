package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"tsteiner/internal/core"
	"tsteiner/internal/designio"
	"tsteiner/internal/flow"
	"tsteiner/internal/gnn"
	"tsteiner/internal/guard"
	"tsteiner/internal/guard/fault"
	"tsteiner/internal/lib"
	"tsteiner/internal/obs"
	"tsteiner/internal/shard"
	"tsteiner/internal/train"
)

// Runner executes one job from its spooled request. It is the single
// execution path behind the daemon's workers; the byte-identity tests
// run their serial reference through a bare Runner, which is what makes
// that gate meaningful: "server concurrent" and "serial" literally
// share this code.
//
// Fault sites (deterministic, nil injector = production):
//
//	serve.panic        panic inside the job body (containment test)
//	serve.stall        stall the job body (queue-saturation test)
//	serve.kill.train   stop mid-training with a checkpoint on disk,
//	                   returning ErrInterrupted (simulated process kill)
//	serve.kill.refine  same, mid-refinement
//
// plus every site of the substrates it drives ("flow.stall",
// "core.stall", "core.nan", "train.nan", "guard.ckpt.truncate").
type Runner struct {
	Spool *Spool
	Cache *ModelCache
	Fault *fault.Injector
	// Obs is the server-wide sink for runner counters (corrupt
	// checkpoints discarded, jobs degraded). Per-job telemetry goes to
	// the job's own trace file, not here. May be nil.
	Obs *obs.Sink
}

// NewRunner builds a runner over a spool. sink may be nil.
func NewRunner(sp *Spool, sink *obs.Sink, inj *fault.Injector) *Runner {
	return &Runner{
		Spool: sp,
		Cache: NewModelCache(sp.ModelDir(), sink),
		Fault: inj,
		Obs:   sink,
	}
}

// Run executes req to completion (or interruption) and persists the
// result and artifacts into the spool. The request must be normalized and
// validated. On ErrInterrupted, resumable checkpoints are on disk and a
// later Run of the same request continues from them — byte-identical to
// an uninterrupted run.
func (rn *Runner) Run(req *JobRequest) (*JobResult, error) {
	if rn.Fault.Fire("serve.panic") {
		panic("serve: injected job panic")
	}
	rn.Fault.Stall("serve.stall")

	jobSink, closeSink, err := rn.jobSink(req.ID)
	if err != nil {
		return nil, err
	}
	defer closeSink()

	l := lib.Default()
	d, err := designio.ReadJSON(bytes.NewReader(req.Design), l)
	if err != nil {
		return nil, fmt.Errorf("serve: job %s: %w", req.ID, err)
	}
	// Canonical design bytes key the model cache; raw request bytes may
	// differ in formatting without changing the design family.
	var canon bytes.Buffer
	if err := designio.WriteJSON(&canon, d); err != nil {
		return nil, fmt.Errorf("serve: job %s: %w", req.ID, err)
	}
	aug := req.AugmentVariants
	if aug < 0 {
		aug = 0 // every "no augmentation" spelling is one family
	}
	family := FamilyHash(canon.Bytes(), req.Seed, req.Epochs, aug)

	var budget *guard.Budget
	if req.DeadlineMS > 0 {
		budget = &guard.Budget{Wall: time.Duration(req.DeadlineMS) * time.Millisecond}
		budget.Start()
	}

	cfg := flow.DefaultConfig()
	cfg.Workers = req.Workers
	cfg.Obs = jobSink
	cfg.Budget = budget
	cfg.Fault = rn.Fault
	cfg.Corners = req.Corners

	var prepared *flow.Prepared
	if flow.HasPlacement(d) {
		prepared, err = flow.PrepareKeepPlacement(d, l, cfg)
	} else {
		prepared, err = flow.Prepare(d, l, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: job %s: %w", req.ID, err)
	}
	rep, timing, err := flow.SignoffTiming(prepared, prepared.Forest)
	if err != nil {
		return nil, fmt.Errorf("serve: job %s: %w", req.ID, err)
	}

	res := &JobResult{
		ID:              req.ID,
		Kind:            req.Kind,
		Design:          d.Name,
		Seed:            req.Seed,
		Baseline:        metricsOf(rep),
		BaselineCorners: rep.Corners,
	}

	finalForest := prepared.Forest
	if req.Kind == KindRefine && req.Shards > 0 {
		// Sharded incremental refinement: no evaluator and no training —
		// the windowed-STA loop replaces the GNN. Byte-identical at any
		// Shards/Workers value, so the artifacts stay a pure function of
		// the request minus its concurrency knobs.
		sopt := shard.DefaultOptions()
		sopt.Shards = req.Shards
		sopt.Workers = req.Workers
		sopt.Rounds = req.Iters
		sopt.Corners = req.Corners
		sres, err := shard.Refine(prepared, sopt)
		if err != nil {
			return nil, fmt.Errorf("serve: job %s: sharded refine: %w", req.ID, err)
		}
		res.Iterations = sres.Rounds
		res.EvalInitWNS, res.EvalBestWNS = sres.InitWNS, sres.WNS
		res.EvalInitTNS, res.EvalBestTNS = sres.InitTNS, sres.TNS

		// Like the GNN path, the final sign-off measurement runs
		// budget-free on the refined forest.
		finalPrep := *prepared
		finalCfg := prepared.Config
		finalCfg.Budget = nil
		finalPrep.Config = finalCfg
		rep2, err := flow.Signoff(&finalPrep, sres.Forest)
		if err != nil {
			return nil, fmt.Errorf("serve: job %s: %w", req.ID, err)
		}
		ref := metricsOf(rep2)
		res.Refined = &ref
		res.RefinedCorners = rep2.Corners
		finalForest = sres.Forest
	} else if req.Kind == KindTrain || req.Kind == KindRefine {
		smp := &train.Sample{
			Name:     d.Name,
			Train:    true,
			Prepared: prepared,
			Batch:    nil, // filled below
			Forest:   prepared.Forest,
			Labels:   gnn.Labels(timing),
			Baseline: rep,
		}
		smp.Batch, err = gnn.NewBatch(prepared.Design, prepared.Forest)
		if err != nil {
			return nil, fmt.Errorf("serve: job %s: %w", req.ID, err)
		}
		res.FamilyHash = family
		m, err := rn.model(req, family, smp, budget, jobSink)
		if err != nil {
			return nil, err
		}
		res.ModelHash = m.Hash()
		sc, err := train.Evaluate(m, smp)
		if err != nil {
			return nil, fmt.Errorf("serve: job %s: %w", req.ID, err)
		}
		res.R2All, res.R2Ends = sc.ArrivalAll, sc.ArrivalEnds

		if req.Kind == KindRefine {
			rres, err := rn.refine(req, m, smp, prepared, budget)
			if err != nil {
				return nil, err
			}
			res.Iterations = rres.Iterations
			res.ConvergedByRatio = rres.ConvergedByRatio
			res.EvalInitWNS, res.EvalBestWNS = rres.InitWNS, rres.BestWNS
			res.EvalInitTNS, res.EvalBestTNS = rres.InitTNS, rres.BestTNS
			res.Cutoff = rres.Cutoff
			res.Degraded = rres.Degraded
			res.Recoveries = rres.Recoveries

			// The final sign-off measurement always runs, budget-free: a
			// job whose budget expired mid-refinement still answers with
			// the sign-off of its best-so-far forest — degradation, not
			// an error.
			finalPrep := *prepared
			finalCfg := prepared.Config
			finalCfg.Budget = nil
			finalPrep.Config = finalCfg
			rep2, err := flow.Signoff(&finalPrep, rres.Forest)
			if err != nil {
				return nil, fmt.Errorf("serve: job %s: %w", req.ID, err)
			}
			ref := metricsOf(rep2)
			res.Refined = &ref
			res.RefinedCorners = rep2.Corners
			finalForest = rres.Forest
		}
		// A budget that expired during training (clean early stop, no
		// refine cutoff recorded) is still a degradation the caller must
		// see: the evaluator behind these numbers trained for fewer
		// epochs than asked.
		if reason, over := budget.ExceededWall(); over && res.Cutoff == "" {
			res.Cutoff = reason
			res.Degraded = true
		}
		if res.Degraded || res.Cutoff != "" {
			rn.Obs.Add("serve.jobs_degraded", 1)
		}
	}

	if err := guard.AtomicWriteFunc(rn.Spool.ForestPath(req.ID), func(w io.Writer) error {
		return designio.WriteForestJSON(w, finalForest)
	}); err != nil {
		return nil, fmt.Errorf("serve: job %s: %w", req.ID, err)
	}
	if err := rn.Spool.WriteResult(res, nil); err != nil {
		return nil, fmt.Errorf("serve: job %s: %w", req.ID, err)
	}
	return res, nil
}

// model returns the family's trained evaluator, training it through the
// cache's singleflight on a miss. An injected "serve.kill.train" stops
// training partway with its checkpoint on disk and surfaces
// ErrInterrupted; a corrupt training checkpoint is discarded (counted)
// and training restarts from scratch — byte-identical either way.
func (rn *Runner) model(req *JobRequest, family string, smp *train.Sample, budget *guard.Budget, jobSink *obs.Sink) (*gnn.Model, error) {
	build := func() (*gnn.Model, error) {
		samples := []*train.Sample{smp}
		if req.AugmentVariants > 0 {
			aug, err := train.Augment(smp, req.AugmentVariants, 10, req.Seed, req.Workers)
			if err != nil {
				return nil, fmt.Errorf("serve: job %s: %w", req.ID, err)
			}
			samples = append(samples, aug...)
		}
		m := gnn.NewModel(gnn.DefaultConfig(), req.Seed)
		topt := train.DefaultOptions()
		topt.Epochs = req.Epochs
		topt.Seed = req.Seed
		topt.Obs = jobSink
		topt.Budget = budget
		topt.Fault = rn.Fault
		ckpt := rn.Spool.TrainCkptPath(req.ID)
		topt.CheckpointPath = ckpt
		topt.Resume = fileExists(ckpt)

		interrupted := false
		if rn.Fault.Fire("serve.kill.train") {
			// Simulated process kill: run only half the epochs, leave the
			// checkpoint, report interruption. The resumed run finishes
			// the remaining epochs byte-identically.
			topt.Epochs = req.Epochs / 2
			if topt.Epochs < 1 {
				topt.Epochs = 1
			}
			interrupted = true
		}

		_, err := train.Train(m, samples, topt)
		var ce *guard.CorruptError
		if errors.As(err, &ce) {
			// A torn or tampered checkpoint must never poison the job:
			// discard it and train from scratch — the result is
			// byte-identical because training is deterministic.
			rn.Obs.Add("serve.ckpt_corrupt", 1)
			os.Remove(ckpt)
			topt.Resume = false
			m = gnn.NewModel(gnn.DefaultConfig(), req.Seed)
			_, err = train.Train(m, samples, topt)
		}
		if err != nil {
			return nil, fmt.Errorf("serve: job %s: train: %w", req.ID, err)
		}
		if interrupted {
			return nil, fmt.Errorf("serve: job %s: mid-train: %w", req.ID, ErrInterrupted)
		}
		return m, nil
	}
	if budget != nil {
		// Deadline jobs: read-only cache access. A budget may truncate
		// training mid-way (clean stop), and a truncated model must never
		// be persisted under the family key — see ModelCache.Cached.
		if m, ok := rn.Cache.Cached(family); ok {
			return m, nil
		}
		return build()
	}
	return rn.Cache.Get(family, build)
}

// refine runs the TSteiner loop with per-iteration checkpoints. An
// injected "serve.kill.refine" stops it partway (checkpoint on disk,
// ErrInterrupted); a corrupt refinement checkpoint is discarded (counted)
// and the loop restarts from the prepared forest.
func (rn *Runner) refine(req *JobRequest, m *gnn.Model, smp *train.Sample, prepared *flow.Prepared, budget *guard.Budget) (*core.Result, error) {
	ckpt := rn.Spool.RefineCkptPath(req.ID)
	opt := core.DefaultOptions()
	opt.N = req.Iters
	opt.CandidateLanes = req.Lanes
	opt.Budget = budget
	opt.Fault = rn.Fault
	opt.CheckpointPath = ckpt
	opt.Resume = fileExists(ckpt)
	if len(req.Corners) > 0 {
		opt.Corners = core.CornerTermsFor(req.Corners)
		opt.HoldGuard = true
	}

	interrupted := false
	if rn.Fault.Fire("serve.kill.refine") {
		opt.N = req.Iters / 2
		if opt.N < 1 {
			opt.N = 1
		}
		interrupted = true
	}

	run := func(o core.Options) (*core.Result, error) {
		ref, err := core.NewRefiner(m, smp.Batch, prepared, o)
		if err != nil {
			return nil, fmt.Errorf("serve: job %s: %w", req.ID, err)
		}
		return ref.Refine()
	}
	res, err := run(opt)
	var ce *guard.CorruptError
	if errors.As(err, &ce) {
		rn.Obs.Add("serve.ckpt_corrupt", 1)
		os.Remove(ckpt)
		opt.Resume = false
		res, err = run(opt)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: job %s: refine: %w", req.ID, err)
	}
	if interrupted {
		return nil, fmt.Errorf("serve: job %s: mid-refine: %w", req.ID, ErrInterrupted)
	}
	return res, nil
}

// jobSink opens the job's NDJSON trace (truncating any earlier attempt's
// trace — the trace is a side channel, only the latest attempt's is
// kept).
func (rn *Runner) jobSink(id string) (*obs.Sink, func(), error) {
	// The daemon's admission path creates the job directory when it
	// spools the request; a bare Runner (CLI local mode, tests) has no
	// admission step, so Run must not assume it exists.
	if err := os.MkdirAll(rn.Spool.JobDir(id), 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: job %s: %w", id, err)
	}
	f, err := os.Create(rn.Spool.TracePath(id))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: job %s: trace: %w", id, err)
	}
	sink := obs.New(f)
	return sink, func() { f.Close() }, nil
}

// metricsOf projects the deterministic columns out of a flow report.
func metricsOf(r *flow.Report) Metrics {
	return Metrics{
		WNS:           r.WNS,
		TNS:           r.TNS,
		Vios:          r.Vios,
		WirelengthDBU: r.WirelengthDBU,
		Vias:          r.Vias,
		DRVs:          r.DRVs,
		Overflow:      r.Overflow,
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
