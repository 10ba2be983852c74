// Package flow wires the substrates into the paper's physical-design
// pipeline (Fig. 1): placement → Steiner construction (+ edge shifting) →
// [optional TSteiner refinement, applied by the caller] → global routing →
// detailed routing → RC extraction → sign-off STA. It is the oracle every
// experiment consults: given a design and a Steiner forest, Signoff
// returns the sign-off metrics the paper reports in Table II.
package flow

import (
	"fmt"
	"time"

	"tsteiner/internal/drc"
	"tsteiner/internal/grid"
	"tsteiner/internal/guard"
	"tsteiner/internal/guard/fault"
	"tsteiner/internal/lib"
	"tsteiner/internal/netlist"
	"tsteiner/internal/obs"
	"tsteiner/internal/par"
	"tsteiner/internal/place"
	"tsteiner/internal/rc"
	"tsteiner/internal/route"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/sta"
	"tsteiner/internal/synth"
)

// Config collects the knobs of the full pipeline.
type Config struct {
	GCellSize int
	LayerCaps []int
	Place     place.Options
	RSMT      rsmt.Options
	Route     route.Options
	EdgeShift route.EdgeShiftOptions
	DRC       drc.Options
	// SkipEdgeShift disables the congestion-driven Steiner shift (the
	// paper's baseline always applies it; ablations may not).
	SkipEdgeShift bool
	// TimingDrivenRoute orders global routing most-critical-net-first
	// using a pre-routing STA pass (an extension beyond the CUGR-like
	// baseline; off by default to match the paper's flow).
	TimingDrivenRoute bool
	// Corners lists the sign-off corners to report beyond the typical
	// one: when non-empty, Signoff runs STA once per corner over the
	// same extraction and fills Report.Corners with the matrix. The
	// headline WNS/TNS/Vios stay the typical corner's, so single-corner
	// consumers are unaffected.
	Corners []sta.Corner
	// Workers bounds the goroutines used by parallel flow stages
	// (0 = GOMAXPROCS, 1 = serial), and a refiner built on the prepared
	// design splits each candidate pass into min(Workers, lanes) lane
	// groups. Results are byte-identical for every worker count; it
	// only affects wall clock.
	Workers int
	// Obs receives phase spans and counters (nil = telemetry off). A
	// strict side channel: enabling it never changes any flow output.
	Obs *obs.Sink
	// Budget bounds the pipeline by wall clock, checked at phase
	// boundaries (place, Steiner construction, routing, extraction, STA).
	// The flow has no meaningful partial result, so expiry fails cleanly
	// with a *guard.BudgetError naming the phase. nil = unlimited.
	Budget *guard.Budget
	// Fault is the deterministic fault injector (nil in production). The
	// "flow.stall" site delays a phase boundary, which is how the tests
	// push a run past its wall budget without real-time sleeps mid-phase.
	Fault *fault.Injector
}

// phaseGate is the phase-boundary guard: it applies any injected stall,
// then checks the wall budget. Both are single nil tests when no guard is
// armed, so the healthy path pays nothing.
func (cfg *Config) phaseGate(phase string) error {
	cfg.Fault.Stall("flow.stall")
	if reason, over := cfg.Budget.ExceededWall(); over {
		cfg.Obs.Add("flow.budget_cutoffs", 1)
		cfg.Obs.Event("flow.cutoff", obs.KV{K: "phase", V: phase}, obs.KV{K: "reason", V: reason})
		return &guard.BudgetError{Phase: phase, Reason: reason}
	}
	return nil
}

// DefaultConfig returns the pipeline settings used by every experiment.
func DefaultConfig() Config {
	return Config{
		GCellSize: 8,
		// Capacities sized so benchmark designs route below saturation
		// (peak utilization ≈ 1): real flows close timing in this regime,
		// and a saturated grid makes routing chaotically sensitive to
		// input geometry, drowning every optimization signal.
		LayerCaps: []int{0, 12, 12, 10, 10},
		Place:     place.DefaultOptions(),
		RSMT:      rsmt.DefaultOptions(),
		Route:     route.DefaultOptions(),
		EdgeShift: route.DefaultEdgeShiftOptions(),
		DRC:       drc.DefaultOptions(),
	}
}

// ScaledConfig returns the pipeline settings for scaled (10–100×)
// designs: DefaultConfig plus the Hilbert seed placement. The row
// serpentine the 1× benchmarks pin smears each tiled block across the
// full die width at large sides, saturating the routing grid; the
// Hilbert fill keeps blocks compact so scaled designs route in the
// same sub-saturation regime as the originals.
func ScaledConfig() Config {
	cfg := DefaultConfig()
	cfg.Place.Hilbert = true
	// A taller metal stack: block-level boundary ports and stitch nets
	// of a tiled design add traffic the 4-layer stack of the 1×
	// benchmarks cannot absorb, and chips this size carry more metal
	// for exactly that reason. Eight extra layers put 100× designs in
	// the same regime the 1× capacities were sized for (zero overflow,
	// zero maze reroutes): below saturation, rip-up-and-reroute — and
	// therefore the incremental replay every refinement round pays — is
	// empty, so the per-round cost is pure bookkeeping.
	caps := append([]int{}, cfg.LayerCaps...)
	for i := 0; i < 8; i++ {
		caps = append(caps, 10)
	}
	cfg.LayerCaps = caps
	return cfg
}

// Prepared is the pre-routing state handed to TSteiner: a placed design
// and its initial Steiner forest.
type Prepared struct {
	Design *netlist.Design
	Forest *rsmt.Forest
	Lib    *lib.Library
	Config Config
	// PrepSec is the wall-clock time spent in generation-independent
	// preparation (placement + Steiner construction + edge shifting).
	PrepSec float64
}

// PrepareBenchmark generates, places and Steinerizes a named benchmark at
// the given scale (1.0 = the paper's full size).
func PrepareBenchmark(name string, scale float64, cfg Config) (*Prepared, error) {
	spec, err := synth.BenchmarkByName(name)
	if err != nil {
		return nil, err
	}
	if scale != 1.0 {
		spec = spec.Scale(scale)
	}
	l := lib.Default()
	sp := cfg.Obs.Start("flow.synth")
	d, err := synth.Generate(spec, l)
	sp.End()
	if err != nil {
		return nil, err
	}
	return Prepare(d, l, cfg)
}

// Prepare places the design and builds its initial Steiner forest,
// applying congestion-driven edge shifting unless disabled.
func Prepare(d *netlist.Design, l *lib.Library, cfg Config) (*Prepared, error) {
	return prepare(d, l, cfg, true)
}

// PrepareKeepPlacement builds the pre-routing state for a design that
// already carries a placement (e.g. loaded from JSON): it validates the
// die, builds Steiner trees over the existing positions and applies edge
// shifting, without running the placer.
func PrepareKeepPlacement(d *netlist.Design, l *lib.Library, cfg Config) (*Prepared, error) {
	if d.Die.Empty() || d.Die.Width() == 0 || d.Die.Height() == 0 {
		return nil, fmt.Errorf("flow: design has no usable die for placement-preserving prepare")
	}
	return prepare(d, l, cfg, false)
}

// HasPlacement reports whether a loaded design carries a placement worth
// keeping: a die and at least one cell off the origin. Such designs go
// through PrepareKeepPlacement instead of Prepare.
func HasPlacement(d *netlist.Design) bool {
	if d.Die.Empty() || d.Die.Width() == 0 {
		return false
	}
	for ci := range d.Cells {
		if p := d.Cells[ci].Pos; p.X != 0 || p.Y != 0 {
			return true
		}
	}
	return false
}

// prepare is the body of Prepare (withPlace) and PrepareKeepPlacement.
func prepare(d *netlist.Design, l *lib.Library, cfg Config, withPlace bool) (*Prepared, error) {
	t0 := time.Now()
	root := cfg.Obs.Start("flow.prepare")
	defer root.End()
	cfg.Budget.Start()
	if withPlace {
		if err := cfg.phaseGate("place"); err != nil {
			return nil, err
		}
		sp := root.Child("place")
		_, err := place.Place(d, cfg.Place)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("flow: place: %w", err)
		}
	}
	if cfg.RSMT.Workers == 0 {
		cfg.RSMT.Workers = cfg.Workers
	}
	if err := cfg.phaseGate("rsmt"); err != nil {
		return nil, err
	}
	sp := root.Child("rsmt")
	f, err := rsmt.BuildAll(d, cfg.RSMT)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("flow: steiner: %w", err)
	}
	if !cfg.SkipEdgeShift {
		g, err := grid.New(d.Die, cfg.GCellSize, cfg.LayerCaps)
		if err != nil {
			return nil, fmt.Errorf("flow: grid: %w", err)
		}
		sp = root.Child("edgeshift")
		route.EdgeShift(f, g, cfg.EdgeShift)
		sp.End()
	}
	return &Prepared{
		Design:  d,
		Forest:  f,
		Lib:     l,
		Config:  cfg,
		PrepSec: time.Since(t0).Seconds(),
	}, nil
}

// Report is the sign-off outcome of one flow run: the Table II metrics
// plus the Table IV runtime breakdown.
type Report struct {
	// Sign-off timing (from STA over routed parasitics).
	WNS, TNS float64
	Vios     int
	// Detailed-routing solution quality.
	WirelengthDBU int64
	Vias          int
	DRVs          int
	// Runtime breakdown (seconds). GRSec, ExtractSec and STASec are
	// measured wall clock; DRSec is the surrogate's modeled runtime (see
	// internal/drc); TSteinerSec is filled by callers that ran refinement.
	// STASec includes the pre-routing STA pass when TimingDrivenRoute is
	// on, so the breakdown stays exhaustive.
	GRSec, DRSec, TSteinerSec float64
	ExtractSec, STASec        float64
	// Congestion figure of merit after global routing.
	Overflow int
	// Secondary sign-off checks (diagnostics; not part of the paper's
	// tables): worst hold slack, hold violations, max-transition
	// violations.
	WHS      float64
	HoldVios int
	SlewVios int
	// Corners holds the multi-corner sign-off matrix (one row per
	// Config.Corners entry, same order) when the run was configured for
	// it; empty otherwise. The headline metrics above are always the
	// typical corner's.
	Corners []sta.CornerMetrics
	// Workers records the resolved worker count the producing run was
	// configured with, so wall-clock numbers (Table IV) can be annotated
	// with the parallelism they were measured under.
	Workers int
}

// Total returns the total flow runtime represented by this report: every
// recorded phase, including the extraction and STA seconds that earlier
// versions silently dropped.
func (r *Report) Total() float64 {
	return r.GRSec + r.DRSec + r.ExtractSec + r.STASec + r.TSteinerSec
}

// Signoff routes the forest and measures sign-off timing. The forest is
// not modified: a rounded copy is routed, exactly like the paper's
// post-processing step ("final positions are rounded").
func Signoff(p *Prepared, f *rsmt.Forest) (*Report, error) {
	rep, _, err := SignoffTiming(p, f)
	return rep, err
}

// SignoffTiming is Signoff returning the full STA result as well, for
// callers that need per-pin arrivals (evaluator training labels).
func SignoffTiming(p *Prepared, f *rsmt.Forest) (*Report, *sta.Result, error) {
	d := p.Design
	cfg := p.Config
	root := cfg.Obs.Start("flow.signoff")
	defer root.End()
	cfg.Budget.Start()

	rounded := f.Clone()
	rounded.RoundPositions()

	var preStaSec float64
	routeOpt := cfg.Route
	if cfg.TimingDrivenRoute {
		if err := cfg.phaseGate("presta"); err != nil {
			return nil, nil, err
		}
		// Pre-routing STA over tree geometry yields per-net criticality
		// for most-critical-first net ordering.
		sp := root.Child("presta")
		t0 := time.Now()
		rcs, err := rc.ExtractFromTrees(d, rounded, p.Lib)
		if err != nil {
			sp.End()
			return nil, nil, fmt.Errorf("flow: pre-route extract: %w", err)
		}
		pre, err := sta.Run(d, rcs)
		preStaSec = time.Since(t0).Seconds()
		sp.End()
		if err != nil {
			return nil, nil, fmt.Errorf("flow: pre-route sta: %w", err)
		}
		cfg.Obs.Add("flow.sta_runs", 1)
		routeOpt.NetPriority = pre.NetCriticality(d)
	}

	if err := cfg.phaseGate("gr"); err != nil {
		return nil, nil, err
	}
	g, err := grid.New(d.Die, cfg.GCellSize, cfg.LayerCaps)
	if err != nil {
		return nil, nil, fmt.Errorf("flow: grid: %w", err)
	}
	sp := root.Child("gr")
	t0 := time.Now()
	grM0 := cfg.Obs.Mallocs()
	gr, err := route.Route(d, rounded, g, routeOpt)
	grSec := time.Since(t0).Seconds()
	sp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("flow: global route: %w", err)
	}
	cfg.Obs.Add("flow.gr_runs", 1)
	cfg.Obs.Observe("flow.gr_overflow", float64(gr.Overflow))
	cfg.Obs.Observe("flow.gr_ms", grSec*1e3)
	if cfg.Obs.Enabled() {
		cfg.Obs.Observe("flow.gr_allocs", float64(cfg.Obs.Mallocs()-grM0))
	}

	if err := cfg.phaseGate("dr"); err != nil {
		return nil, nil, err
	}
	sp = root.Child("dr")
	dres, err := drc.Run(d, g, gr, cfg.DRC)
	sp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("flow: detailed route: %w", err)
	}
	cfg.Obs.Add("flow.dr_runs", 1)
	cfg.Obs.Observe("flow.dr_drvs", float64(dres.DRVs))

	if err := cfg.phaseGate("extract"); err != nil {
		return nil, nil, err
	}
	sp = root.Child("extract")
	t0 = time.Now()
	rcs, err := rc.Extract(d, rounded, g, gr, p.Lib)
	extractSec := time.Since(t0).Seconds()
	sp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("flow: extract: %w", err)
	}
	if err := cfg.phaseGate("sta"); err != nil {
		return nil, nil, err
	}
	sp = root.Child("sta")
	t0 = time.Now()
	staM0 := cfg.Obs.Mallocs()
	timing, err := sta.Run(d, rcs)
	staSec := time.Since(t0).Seconds()
	sp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("flow: sta: %w", err)
	}
	cfg.Obs.Add("flow.sta_runs", 1)
	cfg.Obs.Observe("flow.sta_ms", staSec*1e3)
	if cfg.Obs.Enabled() {
		cfg.Obs.Observe("flow.sta_allocs", float64(cfg.Obs.Mallocs()-staM0))
	}
	var cornerRows []sta.CornerMetrics
	if len(cfg.Corners) > 0 {
		if err := cfg.phaseGate("sta_corners"); err != nil {
			return nil, nil, err
		}
		sp = root.Child("sta_corners")
		t0 = time.Now()
		cres, err := sta.RunCorners(d, rcs, cfg.Corners)
		staSec += time.Since(t0).Seconds()
		sp.End()
		if err != nil {
			return nil, nil, fmt.Errorf("flow: corner sta: %w", err)
		}
		cfg.Obs.Add("flow.sta_runs", int64(len(cfg.Corners)))
		cornerRows = make([]sta.CornerMetrics, len(cres))
		for i, cr := range cres {
			cornerRows[i] = cr.CornerSummary()
		}
	}
	rep := &Report{
		WNS:           timing.WNS,
		TNS:           timing.TNS,
		Vios:          timing.Vios,
		WirelengthDBU: dres.WirelengthDBU,
		Vias:          dres.Vias,
		DRVs:          dres.DRVs,
		GRSec:         grSec,
		DRSec:         dres.RuntimeSec,
		ExtractSec:    extractSec,
		STASec:        preStaSec + staSec,
		Overflow:      gr.Overflow,
		WHS:           timing.WHS,
		HoldVios:      timing.HoldVios,
		SlewVios:      timing.SlewVios,
		Corners:       cornerRows,
		Workers:       par.Workers(cfg.Workers),
	}
	cfg.Obs.Event("flow.signoff",
		obs.KV{K: "wns", V: rep.WNS}, obs.KV{K: "tns", V: rep.TNS},
		obs.KV{K: "vios", V: rep.Vios}, obs.KV{K: "wl_dbu", V: rep.WirelengthDBU},
		obs.KV{K: "vias", V: rep.Vias}, obs.KV{K: "drvs", V: rep.DRVs},
		obs.KV{K: "overflow", V: rep.Overflow})
	return rep, timing, nil
}
