// Command runflow executes the physical-design pipeline on a user-supplied
// design (JSON, as written by designio/cmd tsteiner -save-design) instead
// of a bundled benchmark: placement (unless the file carries positions),
// Steiner construction, optional buffering, routing and sign-off STA.
// With -refine it additionally trains the timing evaluator on the design
// and runs TSteiner Steiner-point refinement before the final sign-off.
//
// Usage:
//
//	runflow -design mydesign.json [-replace] [-buffer] [-svg out.svg]
//	        [-refine] [-epochs 60] [-iters 25] [-seed 2023]
//	        [-corners fast,typical,slow]
//	        [-workers N] [-obs-out trace.ndjson] [-cpuprofile cpu.out] [-memprofile mem.out]
//	        [-checkpoint-dir dir] [-resume] [-deadline 10m]
//
// Large designs: -shards N runs sharded incremental refinement
// (internal/shard) instead of the GNN refiner:
//
//	runflow -design big.json -shards 4 [-rounds 8]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"tsteiner/internal/bufins"
	"tsteiner/internal/designio"
	"tsteiner/internal/flow"
	"tsteiner/internal/guard"
	"tsteiner/internal/job"
	"tsteiner/internal/lib"
	"tsteiner/internal/obs"
	"tsteiner/internal/report"
	"tsteiner/internal/shard"
	"tsteiner/internal/sta"
	"tsteiner/internal/viz"
)

func main() {
	var (
		path    = flag.String("design", "", "design JSON path (required)")
		replace = flag.Bool("replace", false, "re-place the design even if it carries positions")
		buffer  = flag.Bool("buffer", false, "apply fanout-driven buffer insertion first")
		svgPath = flag.String("svg", "", "write the layout SVG here")
		refine  = flag.Bool("refine", false, "train an evaluator and refine Steiner points before sign-off")
		epochs  = flag.Int("epochs", 60, "evaluator training epochs (-refine)")
		iters   = flag.Int("iters", 25, "max refinement iterations N (-refine)")
		lanes   = flag.Int("lanes", 0, "line-search candidates per refine iteration, split across -workers (0 or 1 = one, the paper's; -refine)")
		seed    = flag.Int64("seed", 2023, "random seed (-refine)")
		shards  = flag.Int("shards", 0, "run sharded incremental refinement with this many proposal shards (0 = off)")
		rounds  = flag.Int("rounds", 8, "sharded refinement rounds (-shards)")
		cspec   = flag.String("corners", "", `multi-corner sign-off: comma-separated presets fast|typical|slow, "default", or name:delayScale:slewScale:clockScale (empty = typical only)`)
	)
	shared := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if *path == "" {
		flag.Usage()
		os.Exit(2)
	}
	sink, closeObs, err := shared.Setup(nil)
	if err != nil {
		log.Fatal(err)
	}
	defer closeObs()

	var corners []sta.Corner
	if *cspec != "" {
		if corners, err = sta.ParseCorners(*cspec); err != nil {
			log.Fatal(err)
		}
	}

	manifest := shared.Manifest("runflow", flag.CommandLine)
	manifest.Seed = *seed
	manifest.Lanes = *lanes
	manifest.LibFingerprint = lib.Default().Fingerprint()
	manifest.Emit(sink)
	if shared.Out != "" {
		if err := manifest.WriteNextTo(shared.Out); err != nil {
			log.Fatal(err)
		}
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

	l := lib.Default()
	// A truncated or corrupt design file is a typed error, never a
	// partially decoded design.
	d, err := designio.ReadJSONFile(*path, l)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("loaded %s: %d cells, %d nets, %d endpoints",
		d.Name, len(d.Cells), len(d.Nets), len(d.Endpoints()))

	if *buffer {
		buffered, st, err := bufins.Insert(d, bufins.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("buffered %d nets with %d buffers (max tree depth %d)",
			st.NetsBuffered, st.BuffersInserted, st.TreeDepthMax)
		d = buffered
	}

	cfg := flow.DefaultConfig()
	cfg.Workers = shared.Workers
	cfg.Obs = sink
	cfg.Budget = budget
	cfg.Corners = corners
	var prepared *flow.Prepared
	if *replace || !flow.HasPlacement(d) {
		prepared, err = flow.Prepare(d, l, cfg)
	} else {
		// Keep the file's placement: skip the placer by preparing with
		// the existing positions (Prepare always places, so build the
		// forest directly through a placement-preserving config).
		prepared, err = flow.PrepareKeepPlacement(d, l, cfg)
	}
	if err != nil {
		log.Fatal(err)
	}

	spec := job.Spec{Kind: job.KindSignoff}
	var env job.Env
	if *refine {
		spec = job.Spec{
			Kind: job.KindRefine, Seed: *seed, Epochs: *epochs, AugmentVariants: 2,
			Iters: *iters, Lanes: *lanes, Rounds: 1,
		}
		if shared.CheckpointDir != "" {
			env.TrainCkpt = filepath.Join(shared.CheckpointDir, "train.ckpt")
			env.RefineCkpt = filepath.Join(shared.CheckpointDir, "refine.ckpt")
			env.Resume = shared.Resume
		}
		log.Printf("training evaluator (%d epochs) and refining Steiner points (N=%d)", *epochs, *iters)
	}
	out, err := job.Run(prepared, spec, env)
	if err != nil {
		log.Fatal(err)
	}
	rep := out.Baseline
	fmt.Printf("sign-off: WNS %.3f ns, TNS %.2f ns, %d violations\n", rep.WNS, rep.TNS, rep.Vios)
	fmt.Printf("routing:  WL %d DBU, %d vias, %d DRVs, overflow %d\n",
		rep.WirelengthDBU, rep.Vias, rep.DRVs, rep.Overflow)
	if len(rep.Corners) > 0 {
		if err := report.CornerMatrix("sign-off corner matrix", rep.Corners).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}

	finalForest := prepared.Forest
	if *shards > 0 {
		sopt := shard.DefaultOptions()
		sopt.Shards = *shards
		sopt.Workers = shared.Workers
		sopt.Rounds = *rounds
		sopt.Corners = corners
		log.Printf("sharded refinement: %d shards, %d rounds", sopt.Shards, sopt.Rounds)
		res, err := shard.Refine(prepared, sopt)
		if err != nil {
			log.Fatal(err)
		}
		finalForest = res.Forest
		log.Printf("refined: %d/%d rounds accepted, %d nets moved, %d nets re-timed (init %.1fs, refine %.1fs)",
			res.Accepted, res.Rounds, res.MovedNets, res.RetimedNets, res.InitSec, res.RefineSec)
		fmt.Printf("sharded:  WNS %.3f ns, TNS %.2f ns, %d violations (from WNS %.3f, TNS %.2f)\n",
			res.WNS, res.TNS, res.Vios, res.InitWNS, res.InitTNS)
		if len(res.Corners) > 0 {
			if err := report.CornerMatrix("sharded corner matrix", res.Corners).Render(os.Stdout); err != nil {
				log.Fatal(err)
			}
		}
	}
	if *refine {
		finalForest = out.Forest
		manifest.ModelHash = out.Model.Hash()
		log.Printf("evaluator R²: all-pins %.4f, endpoints %.4f", out.Scores.ArrivalAll, out.Scores.ArrivalEnds)
		res, rep2 := out.Refine, out.Refined
		if res.Cutoff != "" {
			log.Printf("refinement cut off (%s); keeping best solution so far", res.Cutoff)
		}
		if res.Degraded {
			log.Printf("refinement degraded after %d numerical recoveries; keeping best solution so far", res.Recoveries)
		}
		fmt.Printf("refined:  WNS %.3f ns, TNS %.2f ns, %d violations (evaluator WNS %.3f→%.3f, %d iterations)\n",
			rep2.WNS, rep2.TNS, rep2.Vios, res.InitWNS, res.BestWNS, res.Iterations)
		if len(rep2.Corners) > 0 {
			if err := report.CornerMatrix("refined corner matrix", rep2.Corners).Render(os.Stdout); err != nil {
				log.Fatal(err)
			}
		}
	}

	if *svgPath != "" {
		if err := guard.AtomicWriteFunc(*svgPath, func(w io.Writer) error {
			return viz.WriteLayoutSVG(w, prepared.Design, finalForest, viz.DefaultLayoutOptions())
		}); err != nil {
			log.Fatal(err)
		}
		if err := manifest.WriteNextTo(*svgPath); err != nil {
			log.Fatal(err)
		}
		log.Printf("layout written to %s", *svgPath)
	}
}
