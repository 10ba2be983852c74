// Package train builds the evaluator's dataset and training loop: for each
// benchmark it runs the full baseline flow to obtain sign-off per-pin
// arrival times (the labels Innovus provides in the paper), then fits the
// GNN timing evaluator with Adam at the paper's learning rate, and scores
// R² on all pins and on endpoints only (Table III).
package train

import (
	"fmt"
	"math/rand"
	"time"

	"math"

	"tsteiner/internal/flow"
	"tsteiner/internal/gnn"
	"tsteiner/internal/guard"
	"tsteiner/internal/guard/fault"
	"tsteiner/internal/metrics"
	"tsteiner/internal/obs"
	"tsteiner/internal/par"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/tensor"
)

// Sample is one design's training/testing record.
type Sample struct {
	Name     string
	Train    bool
	Prepared *flow.Prepared
	Batch    *gnn.Batch
	// Forest is the Steiner geometry this sample's labels were measured
	// on — the prepared forest for the base sample, a perturbed copy for
	// augmentation variants (same topology, different positions).
	Forest *rsmt.Forest
	// Labels are sign-off arrival times per pin; Baseline is the flow
	// report that produced them (reused as the Table II baseline).
	Labels   []float64
	Baseline *flow.Report
}

// BuildSample runs the baseline flow for one benchmark and packages it.
func BuildSample(name string, scale float64, train bool, cfg flow.Config) (*Sample, error) {
	p, err := flow.PrepareBenchmark(name, scale, cfg)
	if err != nil {
		return nil, err
	}
	rep, timing, err := flow.SignoffTiming(p, p.Forest)
	if err != nil {
		return nil, err
	}
	b, err := gnn.NewBatch(p.Design, p.Forest)
	if err != nil {
		return nil, err
	}
	return &Sample{
		Name:     name,
		Train:    train,
		Prepared: p,
		Batch:    b,
		Forest:   p.Forest,
		Labels:   gnn.Labels(timing),
		Baseline: rep,
	}, nil
}

// Augment derives `variants` additional training records from a base
// sample by randomly disturbing Steiner positions (within maxDist DBU) and
// re-running sign-off. This teaches the evaluator how timing responds to
// Steiner movement — exactly the derivative the refinement loop consumes —
// and prevents the optimizer from exploiting surrogate blind spots.
//
// The perturbed forests are drawn serially from one seeded stream (so the
// geometry is identical to the historical serial implementation), then the
// expensive sign-off labeling runs in parallel on `workers` goroutines
// (0 = GOMAXPROCS, 1 = serial). Each variant's flow run is independent, so
// the labels are byte-identical for every worker count.
func Augment(base *Sample, variants int, maxDist float64, seed int64, workers int) ([]*Sample, error) {
	rng := rand.New(rand.NewSource(seed))
	forests := make([]*rsmt.Forest, variants)
	for k := 0; k < variants; k++ {
		f := base.Prepared.Forest.Clone()
		rsmt.Perturb(f, rng, maxDist, base.Prepared.Design.Die)
		forests[k] = f
	}
	return par.Map(workers, forests, func(k int, f *rsmt.Forest) (*Sample, error) {
		_, timing, err := flow.SignoffTiming(base.Prepared, f)
		if err != nil {
			return nil, fmt.Errorf("train: augment %s #%d: %w", base.Name, k, err)
		}
		return &Sample{
			Name:     fmt.Sprintf("%s~%d", base.Name, k),
			Train:    base.Train,
			Prepared: base.Prepared,
			Batch:    base.Batch, // topology unchanged: batch is reusable
			Forest:   f,
			Labels:   gnn.Labels(timing),
		}, nil
	})
}

// Options tunes training.
type Options struct {
	Epochs int
	LR     float64 // paper: 5e-4
	Seed   int64
	// Workers has no effect on Train: its Adam trajectory is sequential,
	// each step depending on the previous step's parameters.
	Workers int
	// Verbose receives per-epoch losses when non-nil.
	Verbose func(epoch int, loss float64)
	// Obs receives the training span, per-epoch loss/grad-norm events and
	// counters (nil = telemetry off). A strict side channel: enabling it
	// never changes the trained parameters.
	Obs *obs.Sink

	// CheckpointPath, when non-empty, writes an atomic CRC-checksummed
	// snapshot of the trainer state (model parameters, Adam moments,
	// completed epochs) after every epoch. With Resume set, a valid
	// checkpoint at that path is restored and training continues from it
	// — byte-identical to an uninterrupted run, because the
	// epoch-permutation RNG is fast-forwarded past the completed epochs.
	// A corrupt checkpoint is a *guard.CorruptError.
	CheckpointPath string
	Resume         bool

	// Budget bounds training by wall clock, checked at epoch boundaries:
	// on expiry the loop stops cleanly with the parameters of the last
	// completed epoch. nil = unlimited.
	Budget *guard.Budget

	// Fault is the deterministic fault injector (nil in production). The
	// "train.nan" site poisons one Adam step's gradient, which the
	// finite-gradient guard must then refuse as a *guard.NumericError
	// without touching the parameters.
	Fault *fault.Injector
}

// DefaultOptions uses a learning rate scaled up from the paper's 5e-4 —
// this evaluator is far smaller than the paper's DGL model, and the higher
// rate converges to the same R² band in a fraction of the epochs.
func DefaultOptions() Options { return Options{Epochs: 150, LR: 5e-3, Seed: 1} }

// Train fits the model on the Train samples, minimizing the mean squared
// error of per-pin arrival prediction. Returns the final average loss.
func Train(m *gnn.Model, samples []*Sample, opt Options) (float64, error) {
	var trainSet []*Sample
	for _, s := range samples {
		if s.Train {
			trainSet = append(trainSet, s)
		}
	}
	if len(trainSet) == 0 {
		return 0, fmt.Errorf("train: no training samples")
	}
	if opt.Epochs <= 0 || opt.LR <= 0 {
		return 0, fmt.Errorf("train: bad options %+v", opt)
	}
	adam := tensor.NewAdam(opt.LR, m.Params())
	rng := rand.New(rand.NewSource(opt.Seed))
	span := opt.Obs.Start("train.train")
	defer span.End()
	opt.Budget.Start()
	startEp := 0
	last := 0.0
	if opt.Resume && opt.CheckpointPath != "" {
		st := new(trainState)
		ok, err := guard.ReadCheckpoint(opt.CheckpointPath, st)
		if err != nil {
			return 0, err
		}
		if ok {
			if st.Epoch < 0 {
				return 0, &guard.CorruptError{Path: opt.CheckpointPath, Reason: "negative epoch counter"}
			}
			if err := m.RestoreParams(st.Params); err != nil {
				return 0, &guard.CorruptError{Path: opt.CheckpointPath, Reason: "parameter shape mismatch", Err: err}
			}
			if err := adam.Restore(st.Adam); err != nil {
				return 0, &guard.CorruptError{Path: opt.CheckpointPath, Reason: "optimizer state mismatch", Err: err}
			}
			// Fast-forward the permutation stream past the completed
			// epochs, so the resumed trajectory is byte-identical to one
			// that was never interrupted.
			for ep := 0; ep < st.Epoch; ep++ {
				rng.Perm(len(trainSet))
			}
			startEp = st.Epoch
			last = st.Last
			opt.Obs.Add("train.resumes", 1)
			opt.Obs.Event("train.resume", obs.KV{K: "epoch", V: st.Epoch}, obs.KV{K: "path", V: opt.CheckpointPath})
		}
	}
	// wantGradSq gates the extra per-step gradient-norm reduction: it is
	// read-only arithmetic over already-computed gradients, so enabling
	// telemetry never changes the Adam trajectory.
	wantGradSq := opt.Obs.Enabled()
	// One tensor workspace, reused across steps. Buffer reuse never
	// changes results — workspace purity makes every gradient a function
	// of (parameters, sample) alone.
	ws := tensor.NewWorkspace()
	for ep := startEp; ep < opt.Epochs; ep++ {
		if reason, over := opt.Budget.ExceededWall(); over {
			opt.Obs.Add("train.budget_cutoffs", 1)
			opt.Obs.Event("train.cutoff", obs.KV{K: "epoch", V: ep}, obs.KV{K: "reason", V: reason})
			break
		}
		epT0 := time.Now()
		order := rng.Perm(len(trainSet))
		epochLoss, epochGradSq := 0.0, 0.0
		for _, si := range order {
			s := trainSet[si]
			loss, gradSq, err := step(m, adam, s, ws, wantGradSq, opt.Fault)
			if err != nil {
				return 0, fmt.Errorf("train: %s: %w", s.Name, err)
			}
			epochLoss += loss
			epochGradSq += gradSq
		}
		last = epochLoss / float64(len(trainSet))
		epochMS := float64(time.Since(epT0)) / float64(time.Millisecond)
		opt.Obs.Add("train.epochs", 1)
		opt.Obs.Observe("train.epoch_ms", epochMS)
		opt.Obs.Event("train.epoch",
			obs.KV{K: "epoch", V: ep}, obs.KV{K: "loss", V: last},
			obs.KV{K: "grad_norm", V: math.Sqrt(epochGradSq)},
			obs.KV{K: "dur_ms", V: epochMS})
		if opt.Verbose != nil {
			opt.Verbose(ep, last)
		}
		if opt.CheckpointPath != "" {
			st := &trainState{Epoch: ep + 1, Params: m.SnapshotParams(), Adam: adam.Snapshot(), Last: last}
			if err := guard.WriteCheckpoint(opt.CheckpointPath, st, opt.Fault); err != nil {
				return 0, err
			}
		}
	}
	return last, nil
}

// trainState is the checkpointed trainer state: everything the loop carries
// across epochs except the permutation RNG, which is fast-forwarded
// deterministically on resume.
type trainState struct {
	Epoch  int
	Params [][]float64
	Adam   tensor.AdamState
	Last   float64
}

// guardGrads refuses a poisoned update: if any reduced gradient entry is
// non-finite, the Adam step must not run — the parameters stay exactly as
// they were. The "train.nan" fault site poisons one entry to prove it.
func guardGrads(params []*tensor.Tensor, inj *fault.Injector) error {
	if inj.Fire("train.nan") && len(params) > 0 && len(params[0].Grad) > 0 {
		params[0].Grad[0] = math.NaN()
	}
	for pi, p := range params {
		for _, g := range p.Grad {
			if math.IsNaN(g) || math.IsInf(g, 0) {
				return &guard.NumericError{Site: "train.step", Detail: fmt.Sprintf("non-finite gradient in parameter %d", pi)}
			}
		}
	}
	return nil
}

// paramGradSq sums the squared gradient entries across parameters.
func paramGradSq(params []*tensor.Tensor) float64 {
	sq := 0.0
	for _, p := range params {
		for _, g := range p.Grad {
			sq += g * g
		}
	}
	return sq
}

// sampleLoss builds the per-pin arrival MSE loss for one sample on tp.
func sampleLoss(tp *tensor.Tape, m *gnn.Model, s *Sample) (*tensor.Tensor, error) {
	xs, ys, err := s.Batch.SteinerLeaves(tp, s.Forest)
	if err != nil {
		return nil, err
	}
	pred, err := m.Forward(tp, s.Batch, xs, ys, true)
	if err != nil {
		return nil, err
	}
	labels, err := tp.Alias(len(s.Labels), 1, s.Labels)
	if err != nil {
		return nil, err
	}
	diff, err := tp.Sub(pred.Arrival, labels)
	if err != nil {
		return nil, err
	}
	sq, err := tp.Mul(diff, diff)
	if err != nil {
		return nil, err
	}
	sum, err := tp.Sum(sq)
	if err != nil {
		return nil, err
	}
	loss, err := tp.Scale(sum, 1/float64(len(s.Labels)))
	if err != nil {
		return nil, err
	}
	if err := tensor.CheckFinite(loss); err != nil {
		return nil, err
	}
	return loss, nil
}

// step runs one forward/backward/update on a sample and returns the loss,
// plus (when wantGradSq is set) the squared gradient norm of the step for
// telemetry. ws is the trainer's reused workspace; parameters are not
// workspace-owned, so their gradient buffers persist across resets.
func step(m *gnn.Model, adam *tensor.Adam, s *Sample, ws *tensor.Workspace, wantGradSq bool, inj *fault.Injector) (float64, float64, error) {
	tp := ws.Tape()
	adam.ZeroGrad()
	loss, err := sampleLoss(tp, m, s)
	if err != nil {
		return 0, 0, err
	}
	if err := tp.Backward(loss); err != nil {
		return 0, 0, err
	}
	if err := guardGrads(m.Params(), inj); err != nil {
		return 0, 0, err
	}
	gradSq := 0.0
	if wantGradSq {
		gradSq = paramGradSq(m.Params())
	}
	adam.Step()
	return loss.Data[0], gradSq, nil
}

// Scores holds the Table III numbers for one design.
type Scores struct {
	ArrivalAll  float64 // R² over all pins
	ArrivalEnds float64 // R² over endpoints only
}

// Evaluate scores a sample without touching gradients.
func Evaluate(m *gnn.Model, s *Sample) (Scores, error) {
	tp := tensor.NewTape()
	xs, ys, err := s.Batch.SteinerLeaves(tp, s.Forest)
	if err != nil {
		return Scores{}, err
	}
	pred, err := m.Forward(tp, s.Batch, xs, ys, false)
	if err != nil {
		return Scores{}, err
	}
	all, err := metrics.R2(s.Labels, pred.Arrival.Data)
	if err != nil {
		return Scores{}, err
	}
	var gEnds, yEnds []float64
	for i, e := range s.Batch.Endpoints {
		gEnds = append(gEnds, s.Labels[e])
		yEnds = append(yEnds, pred.EndpointArrival.Data[i])
	}
	ends, err := metrics.R2(gEnds, yEnds)
	if err != nil {
		return Scores{}, err
	}
	return Scores{ArrivalAll: all, ArrivalEnds: ends}, nil
}
