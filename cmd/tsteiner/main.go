// Command tsteiner runs the full physical-design flow on one benchmark,
// with or without TSteiner refinement, and prints the sign-off comparison.
//
// Usage:
//
//	tsteiner -design spm [-scale 1.0] [-baseline-only]
//	         [-epochs 150] [-iters 25] [-model model.json] [-seed 2023]
//	         [-workers N] [-obs-out trace.ndjson] [-cpuprofile cpu.out] [-memprofile mem.out]
//	         [-checkpoint-dir dir] [-resume] [-deadline 10m]
//
// Sharded incremental refinement on a scaled-up design (see
// internal/shard): tiles -scaleup seeded copies of the benchmark,
// then refines with incremental rerouting and windowed re-timing:
//
//	tsteiner -design spm -scaleup 10 -shards 4 [-rounds 8] [-workers N]
//
// Multi-corner sign-off (-corners) runs STA at every listed corner and
// prints the corner matrix; with refinement it also optimizes the
// matrix penalty under the fast-corner hold guard:
//
//	tsteiner -design spm -corners default
//	tsteiner -design spm -corners fast,typical,slow -scaleup 10 -shards 4
//
// Server mode (tsteinerd, see internal/serve) and client mode:
//
//	tsteiner -serve 127.0.0.1:8080 [-spool dir] [-queue-depth 8] [-job-workers 1]
//	tsteiner -submit http://127.0.0.1:8080 -job-design design.json
//	         [-kind signoff|train|refine] [-job-id id] [-wait 10m]
//	         [-job-shards 4] [-save-forest refined.json] [-deadline 5m]
//
// When -model names an existing file the evaluator is loaded from it (a
// file that does not load is an error); otherwise a fresh evaluator is
// trained on this design (plus perturbed variants) before refinement and
// saved there.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"

	"tsteiner/internal/designio"
	"tsteiner/internal/flow"
	"tsteiner/internal/gnn"
	"tsteiner/internal/guard"
	"tsteiner/internal/job"
	"tsteiner/internal/lib"
	"tsteiner/internal/obs"
	"tsteiner/internal/report"
	"tsteiner/internal/shard"
	"tsteiner/internal/sta"
	"tsteiner/internal/synth"
	"tsteiner/internal/viz"
)

// manifest carries this run's provenance record; every artifact write
// drops a <artifact>.manifest.json beside its output through saveManifest.
var manifest *obs.Manifest

func saveManifest(artifactPath string) {
	if err := manifest.WriteNextTo(artifactPath); err != nil {
		log.Fatal(err)
	}
}

func main() {
	var (
		design       = flag.String("design", "spm", "benchmark name (see internal/synth)")
		scale        = flag.Float64("scale", 1.0, "benchmark scale factor")
		baselineOnly = flag.Bool("baseline-only", false, "run only the baseline flow")
		epochs       = flag.Int("epochs", 150, "evaluator training epochs")
		iters        = flag.Int("iters", 25, "max refinement iterations N")
		lanes        = flag.Int("lanes", 0, "line-search candidates per refine iteration, split across -workers (0 or 1 = one, the paper's)")
		rounds       = flag.Int("rounds", 1, "successive refinement rounds (re-anchored trust region)")
		modelPath    = flag.String("model", "", "load/save the evaluator at this path")
		seed         = flag.Int64("seed", 2023, "random seed")
		svgPath      = flag.String("svg", "", "write a layout SVG (refined trees) to this path")
		forestPath   = flag.String("save-forest", "", "write the refined Steiner forest JSON to this path")
		designPath   = flag.String("save-design", "", "write the design JSON to this path")
		verilogPath  = flag.String("save-verilog", "", "write a structural Verilog view to this path")
		trace        = flag.Bool("trace", false, "print the per-iteration refinement trace")
		cornersSpec  = flag.String("corners", "", `multi-corner sign-off: comma-separated presets fast|typical|slow, "default", or name:delayScale:slewScale:clockScale (empty = typical only)`)
		shards       = flag.Int("shards", 0, "run sharded incremental refinement with this many proposal shards (0 = GNN flow)")
		scaleup      = flag.Int("scaleup", 1, "tile this many seeded copies of the benchmark into one design (with -shards)")

		serveAddr  = flag.String("serve", "", "run as the tsteinerd daemon on this host:port (port 0 picks one) until SIGTERM")
		spoolDir   = flag.String("spool", "tsteinerd-spool", "daemon spool directory for crash-safe job state (server mode)")
		queueDepth = flag.Int("queue-depth", 8, "daemon admission-queue depth; a full queue answers 429 + Retry-After (server mode)")
		jobWorkers = flag.Int("job-workers", 1, "jobs executed concurrently by the daemon (server mode)")
		submitURL  = flag.String("submit", "", "submit a job to the tsteinerd at this base URL instead of running locally (client mode)")
		jobDesign  = flag.String("job-design", "", "designio JSON file to submit (client mode)")
		jobID      = flag.String("job-id", "", "idempotency key for the submitted job (client mode; default: digest of the design bytes)")
		jobKind    = flag.String("kind", "refine", "submitted job kind: signoff|train|refine (client mode)")
		jobWait    = flag.Duration("wait", 0, "wait up to this long for the submitted job to finish (client mode; 0 = submit only)")
		jobRetries = flag.Int("retries", 8, "submit attempts before giving up on 429/503/connection errors (client mode)")
		jobShards  = flag.Int("job-shards", 0, "run a refine job through the sharded incremental engine with this many shards; -iters becomes the round budget (client mode; 0 = GNN refinement)")
	)
	shared := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	sink, closeObs, err := shared.Setup(nil)
	if err != nil {
		log.Fatal(err)
	}
	defer closeObs()
	workers := &shared.Workers

	var corners []sta.Corner
	if *cornersSpec != "" {
		if corners, err = sta.ParseCorners(*cornersSpec); err != nil {
			log.Fatal(err)
		}
	}

	if *serveAddr != "" || *submitURL != "" {
		if err := runService(serviceConfig{
			serveAddr: *serveAddr, spool: *spoolDir,
			queueDepth: *queueDepth, jobWorkers: *jobWorkers,
			submitURL: *submitURL, designFile: *jobDesign,
			jobID: *jobID, kind: *jobKind, wait: *jobWait, retries: *jobRetries,
			forestOut: *forestPath,
			seed:      *seed, epochs: *epochs, iters: *iters, lanes: *lanes,
			jobShards: *jobShards, corners: corners,
			workers: *workers, deadlineWall: shared.Deadline,
		}, sink); err != nil {
			log.Fatal(err)
		}
		return
	}

	manifest = shared.Manifest("tsteiner", flag.CommandLine)
	manifest.Seed = *seed
	manifest.Lanes = *lanes
	manifest.LibFingerprint = lib.Default().Fingerprint()
	manifest.Emit(sink)
	if shared.Out != "" {
		saveManifest(shared.Out)
	}

	var budget *guard.Budget
	if shared.Deadline > 0 {
		budget = &guard.Budget{Wall: shared.Deadline}
		budget.Start()
	}
	if shared.CheckpointDir != "" {
		if err := os.MkdirAll(shared.CheckpointDir, 0o755); err != nil {
			log.Fatal(err)
		}
		if err := manifest.WriteFile(filepath.Join(shared.CheckpointDir, "manifest.json")); err != nil {
			log.Fatal(err)
		}
	}

	if *shards > 0 {
		if err := runSharded(*design, *scaleup, *shards, *rounds, *workers, corners, sink, budget); err != nil {
			log.Fatal(err)
		}
		return
	}

	log.Printf("running baseline flow on %s (scale %.2f)", *design, *scale)
	fcfg := flow.DefaultConfig()
	fcfg.Workers = *workers
	fcfg.Obs = sink
	fcfg.Budget = budget
	fcfg.Corners = corners
	prepared, err := flow.PrepareBenchmark(*design, *scale, fcfg)
	if err != nil {
		log.Fatal(err)
	}
	if *designPath != "" {
		if err := writeFile(*designPath, func(w io.Writer) error {
			return designio.WriteJSON(w, prepared.Design)
		}); err != nil {
			log.Fatal(err)
		}
		saveManifest(*designPath)
		log.Printf("design written to %s", *designPath)
	}
	if *verilogPath != "" {
		if err := writeFile(*verilogPath, func(w io.Writer) error {
			return designio.WriteVerilog(w, prepared.Design)
		}); err != nil {
			log.Fatal(err)
		}
		saveManifest(*verilogPath)
		log.Printf("verilog written to %s", *verilogPath)
	}

	spec := job.Spec{
		Kind: job.KindRefine, Seed: *seed, Epochs: *epochs, AugmentVariants: 2,
		Iters: *iters, Lanes: *lanes, Rounds: *rounds,
	}
	if *baselineOnly {
		spec.Kind = job.KindSignoff
	}
	env := job.Env{Model: func(build func() (*gnn.Model, error)) (*gnn.Model, error) {
		return evaluator(*modelPath, *epochs, shared.CheckpointDir, build)
	}}
	if shared.CheckpointDir != "" {
		env.TrainCkpt = filepath.Join(shared.CheckpointDir, "train.ckpt")
		env.RefineCkpt = filepath.Join(shared.CheckpointDir, "refine.ckpt")
		env.Resume = shared.Resume
	}
	out, err := job.Run(prepared, spec, env)
	if err != nil {
		log.Fatal(err)
	}
	printReport("baseline", out.Baseline)
	if *baselineOnly {
		return
	}

	log.Printf("evaluator R²: all-pins %.4f, endpoints %.4f", out.Scores.ArrivalAll, out.Scores.ArrivalEnds)
	res := out.Refine
	log.Printf("refinement: %d iterations in %.1fs, evaluator WNS %.3f→%.3f TNS %.1f→%.1f",
		res.Iterations, res.RuntimeSec, res.InitWNS, res.BestWNS, res.InitTNS, res.BestTNS)
	if res.Cutoff != "" {
		log.Printf("refinement cut off (%s); keeping best solution so far", res.Cutoff)
	}
	if res.Degraded {
		log.Printf("refinement degraded after %d numerical recoveries; keeping best solution so far", res.Recoveries)
	}
	if *trace {
		tt := report.Table{
			Title:  "refinement trace (evaluator metrics per iteration)",
			Header: []string{"iter", "WNS", "TNS", "theta", "accepted"},
		}
		for i, h := range res.History {
			acc := ""
			if h.Accepted {
				acc = "yes"
			}
			tt.AddRow(report.I(i+1), report.F(h.WNS, 4), report.F(h.TNS, 2),
				report.F(h.Theta, 3), acc)
		}
		if err := tt.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}

	base, rep := out.Baseline, out.Refined
	printReport("tsteiner", rep)

	t := report.Table{
		Title:  "sign-off comparison",
		Header: []string{"flow", "WNS", "TNS", "#Vios", "WL", "#Vias", "#DRV"},
	}
	t.AddRow("baseline", report.F(base.WNS, 3), report.F(base.TNS, 1),
		report.I(base.Vios), fmt.Sprint(base.WirelengthDBU),
		report.I(base.Vias), report.I(base.DRVs))
	t.AddRow("tsteiner", report.F(rep.WNS, 3), report.F(rep.TNS, 1),
		report.I(rep.Vios), fmt.Sprint(rep.WirelengthDBU),
		report.I(rep.Vias), report.I(rep.DRVs))
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if *svgPath != "" {
		if err := writeFile(*svgPath, func(w io.Writer) error {
			return viz.WriteLayoutSVG(w, prepared.Design, out.Forest, viz.DefaultLayoutOptions())
		}); err != nil {
			log.Fatal(err)
		}
		saveManifest(*svgPath)
		log.Printf("layout SVG written to %s", *svgPath)
	}
	if *forestPath != "" {
		if err := writeFile(*forestPath, func(w io.Writer) error {
			return designio.WriteForestJSON(w, out.Forest)
		}); err != nil {
			log.Fatal(err)
		}
		saveManifest(*forestPath)
		log.Printf("refined forest written to %s", *forestPath)
	}
}

// evaluator is the -model policy behind the job's model hook: an
// existing file is loaded, and a missing one (or no -model) is trained
// through build and then saved there. A file that exists but does not
// load is an error and is left untouched. The model hash goes into the
// run manifest, and into its -checkpoint-dir copy before refinement.
func evaluator(path string, epochs int, ckptDir string, build func() (*gnn.Model, error)) (*gnn.Model, error) {
	var m *gnn.Model
	var err error
	if path != "" {
		m, err = gnn.Load(path)
	}
	switch {
	case m != nil:
		log.Printf("loaded evaluator from %s", path)
	case err != nil && !errors.Is(err, fs.ErrNotExist):
		return nil, fmt.Errorf("load evaluator %s: %w", path, err)
	default:
		log.Printf("training evaluator (%d epochs)", epochs)
		if m, err = build(); err != nil {
			return nil, err
		}
		if path != "" {
			if err := m.Save(path); err != nil {
				return nil, err
			}
			manifest.ModelHash = m.Hash()
			saveManifest(path)
			log.Printf("saved evaluator to %s", path)
		}
	}
	manifest.ModelHash = m.Hash()
	if ckptDir == "" {
		return m, nil
	}
	return m, manifest.WriteFile(filepath.Join(ckptDir, "manifest.json"))
}

// runSharded is the -shards path: tile the benchmark -scaleup times,
// prepare it, refine through internal/shard and print the sign-off
// movement. The result is byte-identical at any shard/worker count.
func runSharded(name string, factor, shards, rounds, workers int, corners []sta.Corner, sink *obs.Sink, budget *guard.Budget) error {
	spec, err := synth.BenchmarkByName(name)
	if err != nil {
		return err
	}
	l := lib.Default()
	log.Printf("generating %s ×%d", name, factor)
	d, err := synth.GenerateScaled(spec, factor, l)
	if err != nil {
		return err
	}
	cfg := flow.ScaledConfig()
	cfg.Workers = workers
	cfg.Obs = sink
	cfg.Budget = budget
	p, err := flow.Prepare(d, l, cfg)
	if err != nil {
		return err
	}
	st := d.Stats()
	log.Printf("prepared %s: %d cells, %d nets, %d endpoints (%.1fs)",
		d.Name, st.CellNodes, len(d.Nets), st.Endpoints, p.PrepSec)

	opt := shard.DefaultOptions()
	opt.Shards = shards
	opt.Workers = workers
	opt.Rounds = rounds
	opt.Corners = corners
	log.Printf("sharded refinement: %d shards, %d rounds", opt.Shards, opt.Rounds)
	res, err := shard.Refine(p, opt)
	if err != nil {
		return err
	}
	log.Printf("refined: %d/%d rounds accepted, %d nets moved, %d nets re-timed (init %.1fs, refine %.1fs)",
		res.Accepted, res.Rounds, res.MovedNets, res.RetimedNets, res.InitSec, res.RefineSec)

	t := report.Table{
		Title:  "sharded refinement sign-off",
		Header: []string{"state", "WNS", "TNS", "#Vios", "WL", "#Vias", "overflow"},
	}
	t.AddRow("initial", report.F(res.InitWNS, 3), report.F(res.InitTNS, 1),
		report.I(res.InitVios), "-", "-", "-")
	t.AddRow("refined", report.F(res.WNS, 3), report.F(res.TNS, 1),
		report.I(res.Vios), fmt.Sprint(res.WirelengthDBU),
		report.I(res.Vias), report.I(res.Overflow))
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	if len(res.Corners) > 0 {
		if err := report.CornerMatrix("initial corner matrix", res.InitCorners).Render(os.Stdout); err != nil {
			return err
		}
		return report.CornerMatrix("refined corner matrix", res.Corners).Render(os.Stdout)
	}
	return nil
}

// writeFile renders through guard.AtomicWriteFunc so an interrupted run
// never leaves a half-written artifact behind.
func writeFile(path string, fn func(io.Writer) error) error {
	return guard.AtomicWriteFunc(path, fn)
}

func printReport(name string, r *flow.Report) {
	log.Printf("%s: WNS %.3f ns, TNS %.1f ns, %d violations, WL %d DBU, %d vias, %d DRVs (GR %.1fs, DR %.1fs)",
		name, r.WNS, r.TNS, r.Vios, r.WirelengthDBU, r.Vias, r.DRVs, r.GRSec, r.DRSec)
	if len(r.Corners) > 0 {
		if err := report.CornerMatrix(name+" corner matrix", r.Corners).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}
