package figures

import (
	"io"
	"strings"
	"testing"
)

func ceilingRows(res *CeilingResult, network, decomp string) map[int]CeilingRow {
	out := map[int]CeilingRow{}
	for _, r := range res.Rows {
		if r.Network == network && r.Decomp == decomp {
			out[r.P] = r
		}
	}
	return out
}

// TestCeilingShape is the tentpole's acceptance claim in miniature: on
// Gigabit TCP the replicated strategy has stopped scaling by 8 ranks
// while the domain strategy at the top of the sweep still beats the best
// replicated total anywhere in it.
func TestCeilingShape(t *testing.T) {
	res, err := quickSuite.Ceiling()
	if err != nil {
		t.Fatal(err)
	}
	procs := quickSuite.Cfg.CeilingProcs
	top := procs[len(procs)-1]

	rep := ceilingRows(res, "TCP/IP on Ethernet", "replicated")
	dom := ceilingRows(res, "TCP/IP on Ethernet", "domain")
	repBest := rep[1].Total()
	for _, r := range rep {
		if r.Err == "" && r.Total() < repBest {
			repBest = r.Total()
		}
	}
	// The plateau: going past 8 ranks buys the replicated path nothing.
	if rep[top].Err == "" && rep[top].Total() < rep[8].Total() {
		t.Fatalf("replicated kept scaling past 8: p=8 %g vs p=%d %g",
			rep[8].Total(), top, rep[top].Total())
	}
	// The win: the domain path at the top of the sweep beats the best the
	// replicated path achieves at any rank count.
	if dom[top].Total() >= repBest {
		t.Fatalf("domain at p=%d (%g) does not beat replicated best (%g)",
			top, dom[top].Total(), repBest)
	}

	for _, x := range res.Crossover {
		if x.Network == "TCP/IP on Ethernet" && x.CrossoverP == 0 {
			t.Fatal("no crossover reported on TCP although the domain path wins")
		}
	}
	if res.Effects == nil || res.Effects.MainSS["decomp"] <= 0 {
		t.Fatal("DOE analysis missing the decomposition factor")
	}
}

// TestCeilingRendersUntileableCells: cells the strategy cannot tile carry
// the typed error instead of silently vanishing from the table.
func TestCeilingRendersUntileableCells(t *testing.T) {
	res := &CeilingResult{
		Rows: []CeilingRow{
			{Network: "TCP/IP on Ethernet", Decomp: "replicated", P: 8, Classic: 1, PME: 2},
			{Network: "TCP/IP on Ethernet", Decomp: "replicated", P: 256,
				Err: "pmd: replicated decomposition cannot tile 256 ranks: slab PME assigns whole x-slabs; ranks must not exceed the K1=80 mesh slabs"},
			{Network: "TCP/IP on Ethernet", Decomp: "domain", P: 256, Classic: 0.1, PME: 0.2},
		},
		Crossover: []CeilingCrossover{{
			Network: "TCP/IP on Ethernet", ReplicatedBest: 3, ReplicatedAtP: 8,
			DomainBest: 0.3, DomainAtP: 256, CrossoverP: 256,
		}},
	}
	a, err := quickSuite.FactorAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	res.Effects = a

	var b strings.Builder
	if err := RenderCeiling(&b, res); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "cannot tile") {
		t.Fatalf("untileable cell not marked:\n%s", out)
	}
	if !strings.Contains(out, "p=256") {
		t.Fatalf("crossover verdict missing:\n%s", out)
	}

	var c strings.Builder
	if err := CSVCeiling(&c, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.String(), "K1=80") {
		t.Fatalf("csv lost the tiling error:\n%s", c.String())
	}
}

// TestCeilingOutputIdenticalAcrossWorkers: the rendered ceiling bytes and
// the run counters are identical between the serial schedule and every
// number of cells in flight — the determinism contract extended past 8
// ranks, and to domain cells, which wait for no tape.
func TestCeilingOutputIdenticalAcrossWorkers(t *testing.T) {
	cfgs := workerConfigs(func(c *Config) { c.CeilingProcs = []int{1, 16} })
	identicalAcross(t, cfgs, func(s *Suite, w io.Writer) error {
		res, err := s.Ceiling()
		if err != nil {
			return err
		}
		return RenderCeiling(w, res)
	})
}
