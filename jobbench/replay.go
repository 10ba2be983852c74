package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"tsteiner/internal/core"
	"tsteiner/internal/designio"
	"tsteiner/internal/drc"
	"tsteiner/internal/flow"
	"tsteiner/internal/gnn"
	"tsteiner/internal/grid"
	"tsteiner/internal/lib"
	"tsteiner/internal/netlist"
	"tsteiner/internal/place"
	"tsteiner/internal/rc"
	"tsteiner/internal/route"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/serve"
	"tsteiner/internal/shard"
	"tsteiner/internal/sta"
	"tsteiner/internal/tensor"
	"tsteiner/internal/train"
)

// span is one timed call into a layer. Spans of one replay share the
// tracer's trace ID; Parent 0 marks the root.
type span struct {
	Trace  string  `json:"trace"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory; write dumps them once the run is over.
type tracer struct {
	id    string
	t0    time.Time
	spans []span
}

func newTracer(id string) *tracer { return &tracer{id: id, t0: time.Now()} }

// start opens a span under parent and returns its ID.
func (t *tracer) start(parent int, name string) int {
	t.spans = append(t.spans, span{
		Trace: t.id, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.t0).Seconds(),
	})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	sp := &t.spans[id-1]
	sp.End = time.Since(t.t0).Seconds()
	return sp.End - sp.Start
}

// durations lists the durations of every span called name, in order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, sp := range t.spans {
		if sp.Name == name {
			out = append(out, sp.End-sp.Start)
		}
	}
	return out
}

// write stores the spans as NDJSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// call runs fn inside a span named name.
func (t *tracer) call(parent int, name string, fn func() error) error {
	id := t.start(parent, name)
	err := fn()
	t.end(id)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// prepare is flow.Prepare called layer by layer.
func (t *tracer) prepare(parent int, d *netlist.Design, l *lib.Library, cfg flow.Config) (*flow.Prepared, error) {
	if err := t.call(parent, "place.Place", func() error {
		_, err := place.Place(d, cfg.Place)
		return err
	}); err != nil {
		return nil, err
	}
	if cfg.RSMT.Workers == 0 {
		cfg.RSMT.Workers = cfg.Workers
	}
	var f *rsmt.Forest
	if err := t.call(parent, "rsmt.BuildAll", func() (err error) {
		f, err = rsmt.BuildAll(d, cfg.RSMT)
		return err
	}); err != nil {
		return nil, err
	}
	if !cfg.SkipEdgeShift {
		g, err := grid.New(d.Die, cfg.GCellSize, cfg.LayerCaps)
		if err != nil {
			return nil, err
		}
		t.call(parent, "route.EdgeShift", func() error {
			route.EdgeShift(f, g, cfg.EdgeShift)
			return nil
		})
	}
	return &flow.Prepared{Design: d, Forest: f, Lib: l, Config: cfg}, nil
}

// signoff is flow.SignoffTiming called layer by layer. It also returns the
// global route, whose maze and overflow counts are per-layer metrics.
func (t *tracer) signoff(parent int, p *flow.Prepared, f *rsmt.Forest) (serve.Metrics, []sta.CornerMetrics, *sta.Result, *route.Result, error) {
	var (
		m       serve.Metrics
		corners []sta.CornerMetrics
		gr      *route.Result
		dres    *drc.Result
		rcs     []rc.NetRC
		timing  *sta.Result
	)
	d, cfg := p.Design, p.Config
	rounded := f.Clone()
	rounded.RoundPositions()
	g, err := grid.New(d.Die, cfg.GCellSize, cfg.LayerCaps)
	if err != nil {
		return m, nil, nil, nil, err
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"route.Route", func() (err error) { gr, err = route.Route(d, rounded, g, cfg.Route); return err }},
		{"drc.Run", func() (err error) { dres, err = drc.Run(d, g, gr, cfg.DRC); return err }},
		{"rc.Extract", func() (err error) { rcs, err = rc.Extract(d, rounded, g, gr, p.Lib); return err }},
		{"sta.Run", func() (err error) { timing, err = sta.Run(d, rcs); return err }},
	}
	for _, s := range steps {
		if err := t.call(parent, s.name, s.fn); err != nil {
			return m, nil, nil, nil, err
		}
	}
	if len(cfg.Corners) > 0 {
		if err := t.call(parent, "sta.RunCorners", func() error {
			cres, err := sta.RunCorners(d, rcs, cfg.Corners)
			for _, cr := range cres {
				corners = append(corners, cr.CornerSummary())
			}
			return err
		}); err != nil {
			return m, nil, nil, nil, err
		}
	}
	m = serve.Metrics{
		WNS: timing.WNS, TNS: timing.TNS, Vios: timing.Vios,
		WirelengthDBU: dres.WirelengthDBU, Vias: dres.Vias, DRVs: dres.DRVs,
		Overflow: gr.Overflow,
	}
	return m, corners, timing, gr, nil
}

// sameSignoff fails unless a replayed sign-off equals the reference's.
func sameSignoff(what string, m, want serve.Metrics, corners, wantCorners []sta.CornerMetrics) error {
	if m != want || !reflect.DeepEqual(corners, wantCorners) {
		return fmt.Errorf("replay %s sign-off %+v %+v differs from the untraced job's %+v %+v", what, m, corners, want, wantCorners)
	}
	return nil
}

// layerCommon fills the per-layer metrics every replay shares.
func layerCommon(t *tracer, out map[string]float64, baseRoute *route.Result) {
	out["designio.decode_s"] = median(t.durations("designio.decode"))
	out["place.s"] = median(t.durations("place.Place"))
	out["rsmt.build_s"] = median(t.durations("rsmt.BuildAll"))
	out["route.edgeshift_s"] = median(t.durations("route.EdgeShift"))
	out["route.gr_s"] = median(t.durations("route.Route"))
	out["route.gr_calls"] = float64(len(t.durations("route.Route")))
	out["route.maze_reroutes"] = float64(baseRoute.MazeReroutes)
	out["route.overflow"] = float64(baseRoute.Overflow)
	out["drc.run_s"] = median(t.durations("drc.Run"))
	out["rc.extract_s"] = median(t.durations("rc.Extract"))
	out["sta.run_s"] = median(t.durations("sta.Run"))
	out["sta.corners_s"] = median(t.durations("sta.RunCorners"))
}

// replay re-runs one GNN job the way serve.Runner.Run does, with every
// layer called on its own. The cold job trains its evaluator; the warm job
// loads the family's model from the daemon's cache, and additionally
// measures one job's service time with a direct Runner.Run on the warm
// spool (queue wait is latency minus service time).
func (g *gnnEnv) replay(t *tracer, refJSON []byte, jobS float64) (map[string]float64, error) {
	var ref serve.JobResult
	if err := json.Unmarshal(refJSON, &ref); err != nil {
		return nil, err
	}
	req := g.request("replay")
	ckptDir, err := os.MkdirTemp(g.c.dir, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ckptDir)
	out := map[string]float64{}
	root := t.start(0, "job")

	l := lib.Default()
	var d *netlist.Design
	if err := t.call(root, "designio.decode", func() (err error) {
		d, err = designio.ReadJSON(bytes.NewReader(req.Design), l)
		return err
	}); err != nil {
		return nil, err
	}
	var family string
	if err := t.call(root, "serve.FamilyHash", func() error {
		var canon bytes.Buffer
		if err := designio.WriteJSON(&canon, d); err != nil {
			return err
		}
		family = serve.FamilyHash(canon.Bytes(), req.Seed, req.Epochs, req.AugmentVariants)
		return nil
	}); err != nil {
		return nil, err
	}
	cfg := flow.DefaultConfig()
	cfg.Workers = req.Workers
	cfg.Corners = req.Corners
	p, err := t.prepare(root, d, l, cfg)
	if err != nil {
		return nil, err
	}
	base, baseCorners, timing, baseRoute, err := t.signoff(root, p, p.Forest)
	if err != nil {
		return nil, err
	}
	if err := sameSignoff("baseline", base, ref.Baseline, baseCorners, ref.BaselineCorners); err != nil {
		return nil, err
	}
	smp := &train.Sample{Name: d.Name, Train: true, Prepared: p, Forest: p.Forest, Labels: gnn.Labels(timing)}
	if err := t.call(root, "gnn.NewBatch", func() (err error) {
		smp.Batch, err = gnn.NewBatch(d, p.Forest)
		return err
	}); err != nil {
		return nil, err
	}

	var m *gnn.Model
	augmentCalls := 0
	if g.warm {
		if err := t.call(root, "serve.ModelCache.Cached", func() error {
			cached, ok := serve.NewModelCache(filepath.Join(g.spool, "models"), nil).Cached(family)
			if !ok {
				return fmt.Errorf("family %s is not in the daemon's model cache", family)
			}
			m = cached
			return nil
		}); err != nil {
			return nil, err
		}
	} else {
		samples := []*train.Sample{smp}
		if err := t.call(root, "train.Augment", func() error {
			aug, err := train.Augment(smp, req.AugmentVariants, augmentDist, req.Seed, req.Workers)
			samples = append(samples, aug...)
			return err
		}); err != nil {
			return nil, err
		}
		augmentCalls = req.AugmentVariants
		m = gnn.NewModel(gnn.DefaultConfig(), req.Seed)
		topt := train.DefaultOptions()
		topt.Epochs, topt.Seed, topt.Workers = req.Epochs, req.Seed, req.Workers
		topt.CheckpointPath = filepath.Join(ckptDir, "train.ckpt")
		var epochEnds []time.Time
		topt.Verbose = func(int, float64) { epochEnds = append(epochEnds, time.Now()) }
		trainStart := time.Now()
		if err := t.call(root, "train.Train", func() error {
			_, err := train.Train(m, samples, topt)
			return err
		}); err != nil {
			return nil, err
		}
		var epochs []float64
		prev := trainStart
		for _, e := range epochEnds {
			epochs = append(epochs, e.Sub(prev).Seconds())
			prev = e
		}
		out["train.epoch_s"] = median(epochs)
		out["train.epochs"] = float64(len(epochs))
	}
	if m.Hash() != ref.ModelHash {
		return nil, fmt.Errorf("replay model %s differs from the untraced job's %s", m.Hash(), ref.ModelHash)
	}
	if err := t.call(root, "train.Evaluate", func() error {
		_, err := train.Evaluate(m, smp)
		return err
	}); err != nil {
		return nil, err
	}

	opt := core.DefaultOptions()
	opt.N = req.Iters
	opt.CandidateLanes = req.Lanes
	opt.CheckpointPath = filepath.Join(ckptDir, "refine.ckpt")
	if len(req.Corners) > 0 {
		opt.Corners = core.CornerTermsFor(req.Corners)
		opt.HoldGuard = true
	}
	var rres *core.Result
	if err := t.call(root, "core.Refine", func() error {
		r, err := core.NewRefiner(m, smp.Batch, p, opt)
		if err != nil {
			return err
		}
		rres, err = r.Refine()
		return err
	}); err != nil {
		return nil, err
	}
	fin, finCorners, _, _, err := t.signoff(root, p, rres.Forest)
	if err != nil {
		return nil, err
	}
	replayS := t.end(root)
	if ref.Refined == nil {
		return nil, fmt.Errorf("reference has no refined sign-off")
	}
	if err := sameSignoff("refined", fin, *ref.Refined, finCorners, ref.RefinedCorners); err != nil {
		return nil, err
	}

	layerCommon(t, out, baseRoute)
	// train.Augment runs one full sign-off per variant.
	out["route.gr_calls"] += float64(augmentCalls)
	out["train.augment_s"] = median(t.durations("train.Augment"))
	out["train.train_s"] = median(t.durations("train.Train"))
	out["core.refine_s"] = median(t.durations("core.Refine"))
	if rres.Iterations > 0 {
		out["core.iter_s"] = out["core.refine_s"] / float64(rres.Iterations)
	}
	if len(rres.History) > 0 {
		acc := 0
		for _, h := range rres.History {
			if h.Accepted {
				acc++
			}
		}
		out["core.accept_ratio"] = float64(acc) / float64(len(rres.History))
	}
	if err := gnnLayers(t, out, m, smp); err != nil {
		return nil, err
	}
	out["replay.job_s"] = replayS
	out["replay.overhead_s"] = replayS - jobS
	if g.warm {
		svc, err := g.serviceTime()
		if err != nil {
			return nil, err
		}
		out["serve.queue_wait_s"] = jobS - svc
		out["replay.overhead_s"] = replayS - svc
	}
	return out, nil
}

// serviceTime is the wall time of one direct Runner.Run of a warm job on
// the daemon's spool, where the model is already cached.
func (g *gnnEnv) serviceTime() (float64, error) {
	sp, err := serve.OpenSpool(g.spool)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if _, err := serve.NewRunner(sp, nil, nil).Run(g.request("service")); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// gnnReps is how many times each GNN pass is timed; the median is kept.
const gnnReps = 5

// gnnLayers times the evaluator's forward and backward pass and the fused
// K-lane forward (per candidate) on the job's own model and batch.
func gnnLayers(t *tracer, out map[string]float64, m *gnn.Model, smp *train.Sample) error {
	b := smp.Batch
	xs := make([]float64, warmLanes*b.NSteiner)
	ys := make([]float64, warmLanes*b.NSteiner)
	if err := b.FillSteinerCoords(smp.Forest, xs[:b.NSteiner], ys[:b.NSteiner]); err != nil {
		return err
	}
	for k := 1; k < warmLanes; k++ {
		copy(xs[k*b.NSteiner:], xs[:b.NSteiner])
		copy(ys[k*b.NSteiner:], ys[:b.NSteiner])
	}
	ws := tensor.NewWorkspace()
	root := t.start(0, "gnn")
	for i := 0; i < gnnReps; i++ {
		tp := ws.Tape()
		var pred *gnn.Prediction
		if err := t.call(root, "gnn.Forward", func() error {
			lx, ly, err := b.SteinerLeaves(tp, smp.Forest)
			if err != nil {
				return err
			}
			pred, err = m.Forward(tp, b, lx, ly, true)
			return err
		}); err != nil {
			return err
		}
		if err := t.call(root, "gnn.Backward", func() error {
			loss, err := tp.Sum(pred.Arrival)
			if err != nil {
				return err
			}
			return tp.Backward(loss)
		}); err != nil {
			return err
		}
		tp = ws.Tape()
		if err := t.call(root, "gnn.ForwardBatch", func() error {
			_, err := m.ForwardBatch(tp, b, warmLanes, xs, ys, false)
			return err
		}); err != nil {
			return err
		}
	}
	t.end(root)
	out["gnn.forward_s"] = median(t.durations("gnn.Forward"))
	out["gnn.backward_s"] = median(t.durations("gnn.Backward"))
	out["gnn.forward_batch_s"] = median(t.durations("gnn.ForwardBatch")) / warmLanes
	return nil
}

// replay re-runs one shard-100x job with every layer called on its own.
func (s *shardEnv) replay(t *tracer, refJSON []byte, jobS float64) (map[string]float64, error) {
	var ref shardResult
	if err := json.Unmarshal(refJSON, &ref); err != nil {
		return nil, err
	}
	root := t.start(0, "job")
	l := lib.Default()
	var d *netlist.Design
	if err := t.call(root, "designio.decode", func() (err error) {
		d, err = designio.StreamDesign(bytes.NewReader(s.design), l)
		return err
	}); err != nil {
		return nil, err
	}
	p, err := t.prepare(root, d, l, shardConfig())
	if err != nil {
		return nil, err
	}
	var sres *shard.Result
	if err := t.call(root, "shard.Refine", func() (err error) {
		sres, err = shard.Refine(p, shardOptions())
		return err
	}); err != nil {
		return nil, err
	}
	fin, finCorners, _, finRoute, err := t.signoff(root, p, sres.Forest)
	if err != nil {
		return nil, err
	}
	replayS := t.end(root)
	if err := sameSignoff("refined", fin, ref.Refined, finCorners, ref.RefinedCorners); err != nil {
		return nil, err
	}
	if sres.InitWNS != ref.InitWNS || sres.InitTNS != ref.InitTNS {
		return nil, fmt.Errorf("replay shard initial sign-off %g/%g differs from the untraced job's %g/%g", sres.InitWNS, sres.InitTNS, ref.InitWNS, ref.InitTNS)
	}

	out := map[string]float64{}
	layerCommon(t, out, finRoute)
	// shard.Refine starts from one full static-pattern route.
	out["route.gr_calls"]++
	out["shard.init_s"] = sres.InitSec
	out["shard.rounds"] = float64(sres.Rounds)
	if sres.Rounds > 0 {
		out["shard.round_s"] = sres.RefineSec / float64(sres.Rounds)
		out["shard.accept_ratio"] = float64(sres.Accepted) / float64(sres.Rounds)
	}
	out["shard.retimed_nets"] = float64(sres.RetimedNets)
	out["replay.job_s"] = replayS
	out["replay.overhead_s"] = replayS - jobS
	return out, nil
}
