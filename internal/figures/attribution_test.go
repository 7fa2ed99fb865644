package figures

import (
	"io"
	"math"
	"strings"
	"testing"
)

// TestAttributionIdentityOverQuickGrid is the acceptance criterion: in
// every tileable cell of the quick ceiling grid, the attribution buckets
// sum to the measured wall within 1%.
func TestAttributionIdentityOverQuickGrid(t *testing.T) {
	res, err := quickSuite.Attribution()
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, r := range res.Rows {
		if r.Err != "" {
			continue
		}
		cells++
		sum := r.Compute + r.Comm + r.Wait + r.Imbalance
		if r.Wall <= 0 {
			t.Fatalf("%s/%s p=%d: non-positive wall %g", r.Network, r.Decomp, r.P, r.Wall)
		}
		if rel := math.Abs(sum-r.Wall) / r.Wall; rel > 0.01 {
			t.Fatalf("%s/%s p=%d: buckets sum to %g, wall %g (rel %.4f)",
				r.Network, r.Decomp, r.P, sum, r.Wall, rel)
		}
		if r.ClassicImb < 1 || r.PMEImb < 1 {
			t.Fatalf("%s/%s p=%d: imbalance ratio below 1: classic %g pme %g",
				r.Network, r.Decomp, r.P, r.ClassicImb, r.PMEImb)
		}
		if r.Dominant == "" {
			t.Fatalf("%s/%s p=%d: no dominant bucket", r.Network, r.Decomp, r.P)
		}
	}
	if cells == 0 {
		t.Fatal("no tileable cells in the quick grid")
	}
	// One verdict per network, each covering both decompositions.
	if len(res.Verdicts) != 3 {
		t.Fatalf("verdicts: %+v", res.Verdicts)
	}
	for _, v := range res.Verdicts {
		if len(v.Cells) != 2 {
			t.Fatalf("network %s verdict cells: %v", v.Network, v.Cells)
		}
		for _, c := range v.Cells {
			if !strings.Contains(c, "-bound") {
				t.Fatalf("verdict cell does not name a bottleneck: %q", c)
			}
		}
	}
}

// TestAttributionExplainsTheCeiling ties the new figure to the paper's
// conclusion: at the top of the quick sweep the replicated strategy's
// wall is no longer majority-compute — the non-compute buckets (comm +
// wait + imbalance) own more of the step than the physics does on
// Gigabit TCP.
func TestAttributionExplainsTheCeiling(t *testing.T) {
	res, err := quickSuite.Attribution()
	if err != nil {
		t.Fatal(err)
	}
	var top *AttributionRow
	for i := range res.Rows {
		r := &res.Rows[i]
		if r.Network == "TCP/IP on Ethernet" && r.Decomp == "replicated" && r.Err == "" {
			if top == nil || r.P > top.P {
				top = r
			}
		}
	}
	if top == nil {
		t.Fatal("no replicated TCP cells")
	}
	if top.Compute > 0.5*top.Wall {
		t.Fatalf("replicated TCP at p=%d is still compute-bound (%.0f%%) — nothing to attribute",
			top.P, 100*top.Compute/top.Wall)
	}
}

// TestAttributionRendersUntileableCells mirrors the ceiling contract:
// cells the strategy cannot tile carry the error, not silence.
func TestAttributionRendersUntileableCells(t *testing.T) {
	res := &AttributionResult{
		Rows: []AttributionRow{
			{Network: "TCP/IP on Ethernet", Decomp: "replicated", P: 8,
				Wall: 3, Compute: 1, Comm: 1, Wait: 0.5, Imbalance: 0.5,
				ClassicImb: 1.2, PMEImb: 1.1, Dominant: "comm"},
			{Network: "TCP/IP on Ethernet", Decomp: "replicated", P: 256,
				Err: "pmd: replicated decomposition cannot tile 256 ranks"},
		},
		Verdicts: []AttributionVerdict{{
			Network: "TCP/IP on Ethernet",
			Cells:   []string{"replicated @ p=8: comm-bound (33% of wall)"},
		}},
	}
	var b strings.Builder
	if err := RenderAttribution(&b, res); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "cannot tile") {
		t.Fatalf("untileable cell not marked:\n%s", out)
	}
	if !strings.Contains(out, "verdict: TCP/IP on Ethernet — replicated @ p=8: comm-bound") {
		t.Fatalf("verdict line missing:\n%s", out)
	}
	var c strings.Builder
	if err := CSVAttribution(&c, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.String(), "cannot_tile_256_ranks") {
		t.Fatalf("csv lost the tiling error:\n%s", c.String())
	}
}

// TestAttributionOutputIdenticalAcrossWorkers: rendered attribution
// bytes and run counters are identical between the serial schedule, every
// number of cells in flight, and the pooled kernels — the acceptance
// determinism contract.
func TestAttributionOutputIdenticalAcrossWorkers(t *testing.T) {
	cfgs := workerConfigs(func(c *Config) { c.CeilingProcs = []int{1, 16} })
	for _, workers := range []int{1, 4} {
		pooled := cfgs[0]
		pooled.Workers, pooled.MD.KernelWorkers = workers, 2
		cfgs = append(cfgs, pooled)
	}
	identicalAcross(t, cfgs, func(s *Suite, w io.Writer) error {
		res, err := s.Attribution()
		if err != nil {
			return err
		}
		return RenderAttribution(w, res)
	})
}

// TestAttributionProfilesServeEveryTileableCell: the machine-readable
// profile map matches the row set and every profile passes the identity.
func TestAttributionProfilesServeEveryTileableCell(t *testing.T) {
	res, err := quickSuite.Attribution()
	if err != nil {
		t.Fatal(err)
	}
	profs, err := res.Profiles(quickSuite)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range res.Rows {
		if r.Err == "" {
			want++
		}
	}
	if len(profs) != want {
		t.Fatalf("profiles: %d, tileable rows: %d", len(profs), want)
	}
	for key, p := range profs {
		if p.WallSeconds <= 0 {
			t.Fatalf("%s: empty profile", key)
		}
		if rel := math.Abs(p.Attribution.Sum()-p.WallSeconds) / p.WallSeconds; rel > 0.01 {
			t.Fatalf("%s: identity violated (rel %.4f)", key, rel)
		}
	}
}
