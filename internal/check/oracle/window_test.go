package oracle_test

import (
	"math"
	"math/rand"
	"testing"

	"tsteiner/internal/check/oracle"
	"tsteiner/internal/netlist"
	"tsteiner/internal/rc"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/sta"
)

// TestOracleWindowedSTA is the differential gate for the windowed STA:
// on every seeded benchmark, random moved-net subsets are re-timed
// cone-only via sta.Retime and the annotation must (a) be bit-identical
// to a from-scratch sta.Run on the new parasitics and (b) agree with
// the order-free STAFixpoint relaxation to the oracle tolerance.
// Trials chain — each windowed result becomes the next previous state —
// so stale annotations cannot hide.
func TestOracleWindowedSTA(t *testing.T) {
	for _, name := range benchNames() {
		t.Run(name, func(t *testing.T) {
			p := prepared(t, name, oracleScale)
			f := p.Forest.Clone()
			rcs, err := rc.ExtractFromTrees(p.Design, f, p.Lib)
			if err != nil {
				t.Fatal(err)
			}
			prev, err := sta.Run(p.Design, rcs)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(1000 + len(p.Design.Nets))))
			trials := 6
			if testing.Short() {
				trials = 3
			}
			for trial := 0; trial < trials; trial++ {
				// Move a random subset of nets (≤ ~8%, the cone-sized
				// change sets refinement rounds produce).
				k := 1 + rng.Intn(len(p.Design.Nets)/12+1)
				changed := make([]netlist.NetID, 0, k)
				seen := map[netlist.NetID]bool{}
				for len(changed) < k {
					ni := netlist.NetID(rng.Intn(len(p.Design.Nets)))
					if seen[ni] {
						continue
					}
					seen[ni] = true
					tr := f.Trees[ni]
					for i := range tr.Nodes {
						if tr.Nodes[i].Kind != rsmt.SteinerNode {
							continue
						}
						tr.Nodes[i].Pos.X += (rng.Float64() - 0.5) * 6
						tr.Nodes[i].Pos.Y += (rng.Float64() - 0.5) * 6
					}
					nrc, err := rc.ExtractTreeNet(p.Design, tr, p.Lib)
					if err != nil {
						t.Fatal(err)
					}
					rcs[ni] = nrc
					changed = append(changed, ni)
				}

				got, err := sta.Retime(p.Design, prev, rcs, changed)
				if err != nil {
					t.Fatal(err)
				}

				// (a) bit-identity against the one-pass engine.
				want, err := sta.Run(p.Design, rcs)
				if err != nil {
					t.Fatal(err)
				}
				for pid := range want.Arrival {
					if math.Float64bits(got.Arrival[pid]) != math.Float64bits(want.Arrival[pid]) ||
						math.Float64bits(got.Slew[pid]) != math.Float64bits(want.Slew[pid]) ||
						math.Float64bits(got.Required[pid]) != math.Float64bits(want.Required[pid]) {
						t.Fatalf("trial %d pin %d: windowed (%.17g, %.17g, %.17g) vs full (%.17g, %.17g, %.17g)",
							trial, pid, got.Arrival[pid], got.Slew[pid], got.Required[pid],
							want.Arrival[pid], want.Slew[pid], want.Required[pid])
					}
				}
				if math.Float64bits(got.WNS) != math.Float64bits(want.WNS) ||
					math.Float64bits(got.TNS) != math.Float64bits(want.TNS) ||
					got.Vios != want.Vios {
					t.Fatalf("trial %d: windowed sign-off (%g, %g, %d) vs full (%g, %g, %d)",
						trial, got.WNS, got.TNS, got.Vios, want.WNS, want.TNS, want.Vios)
				}

				// (b) oracle agreement: the brute-force fixpoint
				// relaxation re-timed from scratch on the new parasitics.
				ora, err := oracle.STAFixpoint(p.Design, rcs)
				if err != nil {
					t.Fatal(err)
				}
				for pid := range ora.Arrival {
					if relDiff(got.Arrival[pid], ora.Arrival[pid]) > 1e-9 {
						t.Fatalf("trial %d pin %d: arrival %.12g (windowed) vs %.12g (fixpoint)",
							trial, pid, got.Arrival[pid], ora.Arrival[pid])
					}
					if relDiff(got.Slew[pid], ora.Slew[pid]) > 1e-9 {
						t.Fatalf("trial %d pin %d: slew %.12g (windowed) vs %.12g (fixpoint)",
							trial, pid, got.Slew[pid], ora.Slew[pid])
					}
				}
				for i := range ora.Endpoints {
					if got.Endpoints[i] != ora.Endpoints[i] {
						t.Fatalf("trial %d endpoint %d differs", trial, i)
					}
					if relDiff(got.EndpointSlack[i], ora.EndpointSlack[i]) > 1e-9 {
						t.Fatalf("trial %d endpoint %d: slack %.12g vs %.12g",
							trial, i, got.EndpointSlack[i], ora.EndpointSlack[i])
					}
				}
				if relDiff(got.WNS, ora.WNS) > 1e-9 || relDiff(got.TNS, ora.TNS) > 1e-9 || got.Vios != ora.Vios {
					t.Fatalf("trial %d: sign-off triple (%.12g, %.12g, %d) vs oracle (%.12g, %.12g, %d)",
						trial, got.WNS, got.TNS, got.Vios, ora.WNS, ora.TNS, ora.Vios)
				}

				prev = got
			}
		})
	}
}
