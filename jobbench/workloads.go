package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"tsteiner/internal/designio"
	"tsteiner/internal/flow"
	"tsteiner/internal/lib"
	"tsteiner/internal/netlist"
	"tsteiner/internal/obs"
	"tsteiner/internal/serve"
	"tsteiner/internal/shard"
	"tsteiner/internal/sta"
	"tsteiner/internal/synth"
)

// Job shape shared by every workload.
const (
	jobWorkers   = 2   // JobRequest.Workers / flow and shard Workers
	warmClients  = 2   // closed-loop clients of the job-warm daemon
	warmLanes    = 4   // fused line-search candidates on job-warm
	shardFactor  = 100 // tiles of spm in the shard-100x design
	shardCount   = 4
	shardRounds  = 8
	augmentDist  = 10 // train.Augment perturbation radius, as serve.Runner uses
	cornersSpec  = "fast,typical,slow"
	pinTolerance = 1e-9 // relative, for the pinned baseline sign-off
)

// pinned is a baseline sign-off the workload's design must reproduce
// before any refinement, whatever the seed.
type pinned struct {
	WNS, TNS float64
}

var (
	// usb_cdc_core at 1x, typical corner, flow.DefaultConfig.
	pinUSB = pinned{WNS: -1.5965695016329109, TNS: -238.15487288062428}
	// spm tiled 100x, flow.ScaledConfig, shard initial static-pattern
	// sign-off at the slow (primary) corner of fast,typical,slow.
	pinSPM100 = pinned{WNS: -1.2647839962955738, TNS: -3148.0263728881177}
)

func (p pinned) check(wns, tns float64) error {
	near := func(got, want float64) bool {
		return math.Abs(got-want) <= pinTolerance*math.Max(1, math.Abs(want))
	}
	if !near(wns, p.WNS) || !near(tns, p.TNS) {
		return fmt.Errorf("baseline sign-off WNS %.17g TNS %.17g, pinned WNS %.17g TNS %.17g", wns, tns, p.WNS, p.TNS)
	}
	return nil
}

// runCtx is the per-run context every workload builds on.
type runCtx struct {
	seed int64
	// dir is this run's scratch directory (spools, span file), removed at
	// the end of the run.
	dir string
	// sink counts the daemon's and runners' model-cache hits and misses.
	sink *obs.Sink
}

// env is one set-up workload, ready for timed jobs.
type env struct {
	clients int
	// job runs job n of a closed-loop client.
	job func(client, n int) (jobOut, error)
	// replay re-runs one job as a sequence of traced public calls and
	// returns its per-layer metrics; it fails if the replay's sign-off
	// differs from the reference result's. jobS is the untraced median
	// job latency.
	replay func(tr *tracer, ref []byte, jobS float64) (map[string]float64, error)
	close  func()
}

// workload is one named benchmark workload.
type workload struct {
	name string
	why  string
	// setupReps is how often set-up is repeated per run for its median.
	setupReps int
	// setup builds the inputs and the system under test and warms its
	// caches. It is the timed set-up.
	setup func(c *runCtx) (*env, error)
	// reference computes the reference result every timed job must match
	// and checks its baseline against the pinned value. Not part of setup_s.
	reference func(e *env) ([]byte, error)
}

var workloads = []workload{
	{
		name:      "job-cold",
		why:       "Runner.Run refine job on usb_cdc_core with a fresh spool each time: evaluator training dominates and maze routing is heavy",
		setupReps: 15,
		setup:     setupCold,
		reference: referenceGNN,
	},
	{
		name:      "job-warm",
		why:       "in-process tsteinerd, 2 closed-loop clients, cached model: fused 4-lane refine, 3-corner STA and hold guard, queueing",
		setupReps: 3,
		setup:     setupWarm,
		reference: referenceGNN,
	},
	{
		name:      "shard-100x",
		why:       "CLI sharded path on spm tiled 100x: stream decode, Hilbert placement, windowed retiming; no GNN, no maze routing",
		setupReps: 9,
		setup:     setupShard,
		reference: referenceShard,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// designJSON generates a pinned benchmark design (tiled factor times when
// factor > 1) and encodes it as designio JSON, as a client would send it.
func designJSON(name string, factor int) ([]byte, error) {
	spec, err := synth.BenchmarkByName(name)
	if err != nil {
		return nil, err
	}
	l := lib.Default()
	var d *netlist.Design
	if factor > 1 {
		d, err = synth.GenerateScaled(spec, factor, l)
	} else {
		d, err = synth.Generate(spec, l)
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := designio.WriteJSON(&buf, d); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// canonResult is a job result with its ID cleared, as JSON.
func canonResult(r *serve.JobResult) ([]byte, error) {
	c := *r
	c.ID = ""
	return json.Marshal(&c)
}

// gnnEnv is the shared state of the two GNN workloads.
type gnnEnv struct {
	c      *runCtx
	design []byte
	// warm jobs use lanes and corners; cold jobs neither.
	warm bool
	// spool is the daemon's spool (job-warm only).
	spool string
}

func (g *gnnEnv) request(id string) *serve.JobRequest {
	req := &serve.JobRequest{
		ID:      id,
		Kind:    serve.KindRefine,
		Design:  g.design,
		Seed:    g.c.seed,
		Workers: jobWorkers,
	}
	if g.warm {
		req.Lanes = warmLanes
		req.Corners = mustCorners()
	}
	req.Normalize()
	return req
}

func mustCorners() []sta.Corner {
	cs, err := sta.ParseCorners(cornersSpec)
	if err != nil {
		panic(err) // a constant spec
	}
	return cs
}

// gnnOut checks a finished GNN job and projects it for the tally.
func gnnOut(res *serve.JobResult, lat time.Duration) (jobOut, error) {
	if res == nil || res.Refined == nil {
		return jobOut{}, fmt.Errorf("job returned no refined sign-off")
	}
	canon, err := canonResult(res)
	if err != nil {
		return jobOut{}, err
	}
	return jobOut{
		lat:      lat,
		canon:    canon,
		wnsRatio: ratio(res.Refined.WNS, res.Baseline.WNS),
		tnsRatio: ratio(res.Refined.TNS, res.Baseline.TNS),
	}, nil
}

// setupCold generates the design. Each cold job then gets a fresh spool,
// so its Runner's model cache always misses and every job trains.
func setupCold(c *runCtx) (*env, error) {
	design, err := designJSON("usb_cdc_core", 1)
	if err != nil {
		return nil, err
	}
	g := &gnnEnv{c: c, design: design}
	var seq atomic.Int64
	return &env{
		clients: 1,
		job: func(client, n int) (jobOut, error) {
			id := fmt.Sprintf("cold-%d", seq.Add(1))
			dir := filepath.Join(c.dir, id)
			defer os.RemoveAll(dir)
			sp, err := serve.OpenSpool(dir)
			if err != nil {
				return jobOut{}, err
			}
			rn := serve.NewRunner(sp, c.sink, nil)
			req := g.request(id)
			t0 := time.Now()
			res, err := rn.Run(req)
			lat := time.Since(t0)
			if err != nil {
				return jobOut{}, err
			}
			return gnnOut(res, lat)
		},
		replay: g.replay,
		close:  func() {},
	}, nil
}

// setupWarm starts an in-process tsteinerd on a fresh spool and trains the
// family's model through a train job, so every timed refine job hits the
// model cache.
func setupWarm(c *runCtx) (*env, error) {
	design, err := designJSON("usb_cdc_core", 1)
	if err != nil {
		return nil, err
	}
	spool, err := os.MkdirTemp(c.dir, "warm-spool-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{SpoolDir: spool, JobWorkers: 1, Obs: c.sink})
	if err != nil {
		return nil, err
	}
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		srv.Close()
		return nil, err
	}
	g := &gnnEnv{c: c, design: design, warm: true, spool: spool}
	hc := &http.Client{}
	closeAll := func() {
		srv.Close()
		hc.CloseIdleConnections()
	}
	warmReq := g.request("warm-train")
	warmReq.Kind = serve.KindTrain
	warmCl := &serve.Client{Base: srv.URL(), HTTPClient: hc}
	st, err := warmCl.Submit(warmReq)
	if err == nil {
		_, err = waitDone(warmCl, warmReq.ID, st)
	}
	if err != nil {
		closeAll()
		return nil, fmt.Errorf("cache warm-up: %w", err)
	}

	clients := make([]*serve.Client, warmClients)
	for i := range clients {
		clients[i] = &serve.Client{Base: srv.URL(), HTTPClient: hc, JitterSeed: int64(i + 1)}
	}
	return &env{
		clients: warmClients,
		job: func(client, n int) (jobOut, error) {
			req := g.request(fmt.Sprintf("warm-%d-%d", client, n))
			t0 := time.Now()
			st, err := clients[client].Submit(req)
			submit := time.Since(t0)
			if err != nil {
				return jobOut{}, err
			}
			if st, err = waitDone(clients[client], req.ID, st); err != nil {
				return jobOut{}, err
			}
			out, err := gnnOut(st.Result, time.Since(t0))
			out.submit = submit
			return out, err
		},
		replay: g.replay,
		close:  closeAll,
	}, nil
}

// waitDone waits for a submitted job and requires it to end done.
func waitDone(cl *serve.Client, id string, st *serve.JobStatus) (*serve.JobStatus, error) {
	if st.State != serve.StateDone {
		var err error
		if st, err = cl.Wait(id, 0); err != nil {
			return nil, err
		}
	}
	if st.State != serve.StateDone {
		return nil, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
	}
	return st, nil
}

// referenceGNN runs one job outside the timed window; its result, ID
// aside, is what every timed job must return.
func referenceGNN(e *env) ([]byte, error) {
	out, err := e.job(0, -1)
	if err != nil {
		return nil, fmt.Errorf("reference job: %w", err)
	}
	var res serve.JobResult
	if err := json.Unmarshal(out.canon, &res); err != nil {
		return nil, err
	}
	if err := pinUSB.check(res.Baseline.WNS, res.Baseline.TNS); err != nil {
		return nil, err
	}
	return out.canon, nil
}

// shardResult is the deterministic outcome of a shard-100x job: the
// shard.Result fields minus its forest and timings, plus the sign-off of
// the refined forest.
type shardResult struct {
	InitWNS, InitTNS float64
	InitVios         int
	WNS, TNS         float64
	Vios             int
	WirelengthDBU    int64
	Vias, Overflow   int
	InitCorners      []sta.CornerMetrics
	Corners          []sta.CornerMetrics
	Rounds           int
	Accepted         int
	Rejected         int
	MovedNets        int
	HoldRejects      int
	RetimedNets      int
	Refined          serve.Metrics
	RefinedCorners   []sta.CornerMetrics
}

func newShardResult(s *shard.Result, rep *flow.Report) shardResult {
	return shardResult{
		InitWNS: s.InitWNS, InitTNS: s.InitTNS, InitVios: s.InitVios,
		WNS: s.WNS, TNS: s.TNS, Vios: s.Vios,
		WirelengthDBU: s.WirelengthDBU, Vias: s.Vias, Overflow: s.Overflow,
		InitCorners: s.InitCorners, Corners: s.Corners,
		Rounds: s.Rounds, Accepted: s.Accepted, Rejected: s.Rejected,
		MovedNets: s.MovedNets, HoldRejects: s.HoldRejects, RetimedNets: s.RetimedNets,
		Refined: serve.Metrics{
			WNS: rep.WNS, TNS: rep.TNS, Vios: rep.Vios,
			WirelengthDBU: rep.WirelengthDBU, Vias: rep.Vias,
			DRVs: rep.DRVs, Overflow: rep.Overflow,
		},
		RefinedCorners: rep.Corners,
	}
}

// shardEnv is the shard-100x state: the encoded design.
type shardEnv struct {
	design []byte
}

func shardConfig() flow.Config {
	cfg := flow.ScaledConfig()
	cfg.Workers = jobWorkers
	cfg.Corners = mustCorners()
	return cfg
}

func shardOptions() shard.Options {
	opt := shard.DefaultOptions()
	opt.Shards = shardCount
	opt.Workers = jobWorkers
	opt.Rounds = shardRounds
	opt.Corners = mustCorners()
	return opt
}

// setupShard generates spm tiled 100x and encodes it as JSON. Each job is
// the tsteiner -shards path: decode, prepare, refine, final sign-off.
func setupShard(c *runCtx) (*env, error) {
	design, err := designJSON("spm", shardFactor)
	if err != nil {
		return nil, err
	}
	s := &shardEnv{design: design}
	return &env{
		clients: 1,
		job: func(client, n int) (jobOut, error) {
			t0 := time.Now()
			l := lib.Default()
			d, err := designio.StreamDesign(bytes.NewReader(s.design), l)
			if err != nil {
				return jobOut{}, err
			}
			p, err := flow.Prepare(d, l, shardConfig())
			if err != nil {
				return jobOut{}, err
			}
			sres, err := shard.Refine(p, shardOptions())
			if err != nil {
				return jobOut{}, err
			}
			rep, err := flow.Signoff(p, sres.Forest)
			if err != nil {
				return jobOut{}, err
			}
			lat := time.Since(t0)
			r := newShardResult(sres, rep)
			canon, err := json.Marshal(&r)
			if err != nil {
				return jobOut{}, err
			}
			return jobOut{
				lat:      lat,
				canon:    canon,
				wnsRatio: ratio(r.WNS, r.InitWNS),
				tnsRatio: ratio(r.TNS, r.InitTNS),
			}, nil
		},
		replay: s.replay,
		close:  func() {},
	}, nil
}

func referenceShard(e *env) ([]byte, error) {
	out, err := e.job(0, -1)
	if err != nil {
		return nil, fmt.Errorf("reference job: %w", err)
	}
	var r shardResult
	if err := json.Unmarshal(out.canon, &r); err != nil {
		return nil, err
	}
	if err := pinSPM100.check(r.InitWNS, r.InitTNS); err != nil {
		return nil, err
	}
	return out.canon, nil
}
