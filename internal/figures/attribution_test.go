package figures

import (
	"math"
	"strings"
	"testing"

	"repro/internal/pmd"
)

// TestAttributionIdentityOverQuickGrid is the acceptance criterion: in
// every tileable cell of the quick ceiling grid, the attribution buckets
// sum to the measured wall within 1%.
func TestAttributionIdentityOverQuickGrid(t *testing.T) {
	rows := figureRows(t, quickSuite, "attribution")
	cells := 0
	for _, r := range rows {
		if r.Err != "" {
			continue
		}
		cells++
		name := r.Network() + "/" + r.Cell.Decomp.String()
		sum := computeSecs(r) + commSecs(r) + waitSecs(r) + imbalanceSecs(r)
		if wallSecs(r) <= 0 {
			t.Fatalf("%s p=%d: non-positive wall %g", name, r.P(), wallSecs(r))
		}
		if rel := math.Abs(sum-wallSecs(r)) / wallSecs(r); rel > 0.01 {
			t.Fatalf("%s p=%d: buckets sum to %g, wall %g (rel %.4f)", name, r.P(), sum, wallSecs(r), rel)
		}
		if c, p := imbalanceOf("classic")(r), imbalanceOf("pme")(r); c < 1 || p < 1 {
			t.Fatalf("%s p=%d: imbalance ratio below 1: classic %g pme %g", name, r.P(), c, p)
		}
		if dominant(r) == "" {
			t.Fatalf("%s p=%d: no dominant bucket", name, r.P())
		}
	}
	if cells == 0 {
		t.Fatal("no tileable cells in the quick grid")
	}
	// One verdict per network, each covering both decompositions.
	verdicts := attributionVerdicts(rows)
	if len(verdicts) != 3 {
		t.Fatalf("verdicts: %q", verdicts)
	}
	for _, v := range verdicts {
		if strings.Count(v, " @ p=") != 2 || strings.Count(v, "-bound (") != 2 {
			t.Fatalf("verdict does not name a bottleneck per decomposition: %q", v)
		}
	}
}

// TestAttributionExplainsTheCeiling ties the new figure to the paper's
// conclusion: at the top of the quick sweep the replicated strategy's
// wall is no longer majority-compute — the non-compute buckets (comm +
// wait + imbalance) own more of the step than the physics does on
// Gigabit TCP.
func TestAttributionExplainsTheCeiling(t *testing.T) {
	var top *Row
	for _, r := range figureRows(t, quickSuite, "attribution") {
		if r.Network() == "TCP/IP on Ethernet" && r.Cell.Decomp == pmd.DecompReplicated && r.Err == "" {
			if top == nil || r.P() > top.P() {
				top = &r
			}
		}
	}
	if top == nil {
		t.Fatal("no replicated TCP cells")
	}
	if computeSecs(*top) > 0.5*wallSecs(*top) {
		t.Fatalf("replicated TCP at p=%d is still compute-bound (%.0f%%) — nothing to attribute",
			top.P(), 100*computeSecs(*top)/wallSecs(*top))
	}
}

// TestAttributionRendersUntileableCells mirrors the ceiling contract:
// cells the strategy cannot tile carry the error, not silence, and the
// verdict is read off the deepest rank count that does tile.
func TestAttributionRendersUntileableCells(t *testing.T) {
	rows := untiled(t, figureRows(t, quickSuite, "attribution"))

	var b strings.Builder
	if err := quickSuite.Render(&b, figure(t, "attribution"), rows, false); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	marked := false
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "replicated  256") {
			marked = strings.HasSuffix(line, "cannot tile") && strings.Count(line, "—") == 7
		}
	}
	if !marked {
		t.Fatalf("untileable cell not marked:\n%s", out)
	}
	if !strings.Contains(out, "verdict: TCP/IP on Ethernet — replicated @ p=16: ") {
		t.Fatalf("verdict line missing:\n%s", out)
	}
	var c strings.Builder
	if err := quickSuite.Render(&c, figure(t, "attribution"), rows, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.String(), ",256,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,,pmd:_replicated_decomposition_cannot_tile_256_ranks") {
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
	identicalAcross(t, cfgs, renderFigures("attribution"))
}

// TestAttributionProfilesServeEveryTileableCell: the machine-readable
// profile map matches the row set and every profile passes the identity.
func TestAttributionProfilesServeEveryTileableCell(t *testing.T) {
	rows := untiled(t, figureRows(t, quickSuite, "attribution"))
	profs := Profiles(rows)
	want := 0
	for _, r := range rows {
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
