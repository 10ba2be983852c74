// Package job is the body of one TSteiner job on a prepared design: the
// baseline sign-off, the timing evaluator and its R² (train and refine
// jobs), Algorithm 1 or the sharded refiner (refine jobs), and the final
// sign-off of the refined forest. tsteinerd's runner and the tsteiner and
// runflow CLIs all call Run, so the training recipe, the refinement
// options and the final sign-off policy are written once. The prepared
// design's flow.Config carries the telemetry sink, the wall-clock budget,
// the fault injector, the sign-off corners and the worker count.
package job

import (
	"errors"
	"fmt"

	"tsteiner/internal/core"
	"tsteiner/internal/flow"
	"tsteiner/internal/gnn"
	"tsteiner/internal/obs"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/shard"
	"tsteiner/internal/train"
)

// Job kinds: a signoff job reports the baseline sign-off, a train job also
// fits (or fetches) the evaluator and scores it, and a refine job then
// refines the Steiner points and signs off the result.
const (
	KindSignoff = "signoff"
	KindTrain   = "train"
	KindRefine  = "refine"
)

// augmentDist is the Steiner perturbation radius (DBU) of the training
// variants.
const augmentDist = 10

// ErrInterrupted marks a job stopped by a simulated process kill: the
// "serve.kill.train" and "serve.kill.refine" fault sites run half the
// epochs or iterations, leave the checkpoint and return it.
var ErrInterrupted = errors.New("job: interrupted")

// Spec is what a job computes.
type Spec struct {
	Kind string // KindSignoff | KindTrain | KindRefine
	Seed int64
	// Epochs and AugmentVariants shape evaluator training: a variant is
	// the design with shifted Steiner points (≤ 0 = none).
	Epochs          int
	AugmentVariants int
	// Iters bounds each refinement round (Algorithm 1's N), Lanes sets
	// the line-search candidates per fused forward, and Rounds counts
	// the re-anchored rounds (core.Refiner.RefineRounds).
	Iters  int
	Lanes  int
	Rounds int
	// Shards > 0 refines through internal/shard instead: no evaluator,
	// and Iters is the round budget.
	Shards int
}

// Env is where a job keeps state beyond its result.
type Env struct {
	// TrainCkpt and RefineCkpt are the training and refinement checkpoint
	// paths ("" = none). Refinement round k > 0 checkpoints at
	// RefineCkpt.rk. With Resume, valid checkpoints are continued from;
	// missing ones start fresh and corrupt ones fail the job with a
	// *guard.CorruptError.
	TrainCkpt, RefineCkpt string
	Resume                bool
	// Model supplies the evaluator. build augments and trains one from
	// scratch; Model may instead return a cached or loaded model. nil
	// calls build.
	Model func(build func() (*gnn.Model, error)) (*gnn.Model, error)
}

// Result is a job's outcome.
type Result struct {
	// Baseline is the sign-off of the prepared forest.
	Baseline *flow.Report
	// Model is the evaluator (train and GNN refine jobs) and Scores its
	// R² on the design.
	Model  *gnn.Model
	Scores train.Scores
	// Refine is Algorithm 1's result and Shard the sharded refiner's.
	Refine *core.Result
	Shard  *shard.Result
	// Refined is the budget-free sign-off of Forest (refine jobs).
	Refined *flow.Report
	// Forest is the refined forest (refine jobs), else the prepared one.
	Forest *rsmt.Forest
}

// Run executes one job on p. A budget that expires during training or
// refinement still ends in the final sign-off of the best forest so far;
// one that expires in a sign-off before training (the baseline or an
// augment variant's) fails the job.
func Run(p *flow.Prepared, s Spec, e Env) (*Result, error) {
	cfg := p.Config
	rep, timing, err := flow.SignoffTiming(p, p.Forest)
	if err != nil {
		return nil, err
	}
	res := &Result{Baseline: rep, Forest: p.Forest}
	if s.Kind == KindSignoff {
		return res, nil
	}
	if s.Kind == KindRefine && s.Shards > 0 {
		sopt := shard.DefaultOptions()
		sopt.Shards = s.Shards
		sopt.Workers = cfg.Workers
		sopt.Rounds = s.Iters
		sopt.Corners = cfg.Corners
		if res.Shard, err = shard.Refine(p, sopt); err != nil {
			return nil, fmt.Errorf("sharded refine: %w", err)
		}
		return res.signoff(p, res.Shard.Forest)
	}

	batch, err := gnn.NewBatch(p.Design, p.Forest)
	if err != nil {
		return nil, err
	}
	smp := &train.Sample{
		Name:     p.Design.Name,
		Train:    true,
		Prepared: p,
		Batch:    batch,
		Forest:   p.Forest,
		Labels:   gnn.Labels(timing),
		Baseline: rep,
	}
	build := func() (*gnn.Model, error) {
		samples := []*train.Sample{smp}
		if s.AugmentVariants > 0 {
			aug, err := train.Augment(smp, s.AugmentVariants, augmentDist, s.Seed, cfg.Workers)
			if err != nil {
				return nil, err
			}
			samples = append(samples, aug...)
		}
		topt := train.DefaultOptions()
		topt.Epochs = s.Epochs
		topt.Seed = s.Seed
		topt.Obs = cfg.Obs
		topt.Budget = cfg.Budget
		topt.Fault = cfg.Fault
		topt.CheckpointPath = e.TrainCkpt
		topt.Resume = e.Resume
		killed := cfg.Fault.Fire("serve.kill.train")
		if killed {
			topt.Epochs = max(s.Epochs/2, 1)
		}
		m := gnn.NewModel(gnn.DefaultConfig(), s.Seed)
		if _, err := train.Train(m, samples, topt); err != nil {
			return nil, fmt.Errorf("train: %w", err)
		}
		if killed {
			return nil, fmt.Errorf("mid-train: %w", ErrInterrupted)
		}
		return m, nil
	}
	if e.Model != nil {
		res.Model, err = e.Model(build)
	} else {
		res.Model, err = build()
	}
	if err != nil {
		return nil, err
	}
	if res.Scores, err = train.Evaluate(res.Model, smp); err != nil {
		return nil, err
	}
	cfg.Obs.Event("train.eval",
		obs.KV{K: "design", V: p.Design.Name},
		obs.KV{K: "r2_all", V: res.Scores.ArrivalAll}, obs.KV{K: "r2_ends", V: res.Scores.ArrivalEnds})
	if s.Kind != KindRefine {
		return res, nil
	}

	ropt := core.DefaultOptions()
	ropt.N = s.Iters
	ropt.CandidateLanes = s.Lanes
	ropt.Budget = cfg.Budget
	ropt.Fault = cfg.Fault
	ropt.CheckpointPath = e.RefineCkpt
	ropt.Resume = e.Resume
	if len(cfg.Corners) > 0 {
		ropt.Corners = core.CornerTermsFor(cfg.Corners)
		ropt.HoldGuard = true
	}
	killed := cfg.Fault.Fire("serve.kill.refine")
	if killed {
		ropt.N = max(s.Iters/2, 1)
	}
	ref, err := core.NewRefiner(res.Model, batch, p, ropt)
	if err != nil {
		return nil, err
	}
	if res.Refine, err = ref.RefineRounds(s.Rounds); err != nil {
		return nil, fmt.Errorf("refine: %w", err)
	}
	if killed {
		return nil, fmt.Errorf("mid-refine: %w", ErrInterrupted)
	}
	return res.signoff(p, res.Refine.Forest)
}

// signoff is the final sign-off of the refined forest f, with the budget
// lifted: a cutoff is degradation, not an error.
func (r *Result) signoff(p *flow.Prepared, f *rsmt.Forest) (*Result, error) {
	final := *p
	final.Config.Budget = nil
	rep, err := flow.Signoff(&final, f)
	if err != nil {
		return nil, err
	}
	r.Refined, r.Forest = rep, f
	return r, nil
}
