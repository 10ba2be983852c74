package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"tsteiner/internal/designio"
	"tsteiner/internal/flow"
	"tsteiner/internal/gnn"
	"tsteiner/internal/guard"
	"tsteiner/internal/guard/fault"
	"tsteiner/internal/job"
	"tsteiner/internal/lib"
	"tsteiner/internal/obs"
)

// Runner executes one job from its spooled request. It is the single
// execution path behind the daemon's workers; the byte-identity tests
// run their serial reference through a bare Runner, which is what makes
// that gate meaningful: "server concurrent" and "serial" literally
// share this code. The job body itself is job.Run, which the tsteiner
// and runflow CLIs run too; the Runner adds the spool, the model cache,
// the per-job trace and the discard-and-rerun of a corrupt checkpoint.
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

	spec := job.Spec{
		Kind: req.Kind, Seed: req.Seed, Epochs: req.Epochs, AugmentVariants: req.AugmentVariants,
		Iters: req.Iters, Lanes: req.Lanes, Rounds: 1, Shards: req.Shards,
	}
	env := job.Env{
		TrainCkpt:  rn.Spool.TrainCkptPath(req.ID),
		RefineCkpt: rn.Spool.RefineCkptPath(req.ID),
		Resume:     true,
		// The family's evaluator comes from the cache, trained through
		// its singleflight on a miss. Deadline jobs get read-only access:
		// a budget may truncate training, and a truncated model must
		// never be persisted under the family key (ModelCache.Cached).
		Model: func(build func() (*gnn.Model, error)) (*gnn.Model, error) {
			if budget == nil {
				return rn.Cache.Get(family, build)
			}
			if m, ok := rn.Cache.Cached(family); ok {
				return m, nil
			}
			return build()
		},
	}
	out, err := job.Run(prepared, spec, env)
	var ce *guard.CorruptError
	for errors.As(err, &ce) && (ce.Path == env.TrainCkpt || ce.Path == env.RefineCkpt) {
		// A torn or tampered checkpoint must never poison the job: discard
		// it and run again from scratch — byte-identical, because the job
		// is deterministic.
		rn.Obs.Add("serve.ckpt_corrupt", 1)
		if err := os.Remove(ce.Path); err != nil {
			return nil, fmt.Errorf("serve: job %s: %w", req.ID, err)
		}
		out, err = job.Run(prepared, spec, env)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: job %s: %w", req.ID, err)
	}

	res := &JobResult{
		ID:              req.ID,
		Kind:            req.Kind,
		Design:          d.Name,
		Seed:            req.Seed,
		Baseline:        metricsOf(out.Baseline),
		BaselineCorners: out.Baseline.Corners,
	}
	if out.Refined != nil {
		ref := metricsOf(out.Refined)
		res.Refined = &ref
		res.RefinedCorners = out.Refined.Corners
	}
	if s := out.Shard; s != nil {
		res.Iterations = s.Rounds
		res.EvalInitWNS, res.EvalBestWNS = s.InitWNS, s.WNS
		res.EvalInitTNS, res.EvalBestTNS = s.InitTNS, s.TNS
	}
	if out.Model != nil {
		res.FamilyHash = family
		res.ModelHash = out.Model.Hash()
		res.R2All, res.R2Ends = out.Scores.ArrivalAll, out.Scores.ArrivalEnds
		if r := out.Refine; r != nil {
			res.Iterations = r.Iterations
			res.ConvergedByRatio = r.ConvergedByRatio
			res.EvalInitWNS, res.EvalBestWNS = r.InitWNS, r.BestWNS
			res.EvalInitTNS, res.EvalBestTNS = r.InitTNS, r.BestTNS
			res.Cutoff = r.Cutoff
			res.Degraded = r.Degraded
			res.Recoveries = r.Recoveries
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
		return designio.WriteForestJSON(w, out.Forest)
	}); err != nil {
		return nil, fmt.Errorf("serve: job %s: %w", req.ID, err)
	}
	if err := rn.Spool.WriteResult(res, nil); err != nil {
		return nil, fmt.Errorf("serve: job %s: %w", req.ID, err)
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
