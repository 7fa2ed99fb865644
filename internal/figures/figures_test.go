package figures

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/md"
	"repro/internal/netmodel"
	"repro/internal/pmd"
)

// quickSuite shares one reduced suite across the tests in this package —
// the cells are cached, so each configuration runs once.
var quickSuite = NewSuite(quickConfig())

// freshSuite is an empty suite on quickSuite's system (suites only read
// it): what NewSuite(cfg) returns, without building and relaxing again.
func freshSuite(cfg Config) *Suite { return newSuite(cfg, quickSuite.sys) }

// paperSuite is the paper's protocol (Default: 10 steps, p up to 8),
// built on first use.
var paperSuite = sync.OnceValue(func() *Suite { return freshSuite(Default()) })

// forEachSuite runs a shape test on quickSuite and on paperSuite: only the
// paper's protocol reaches p = 8, where F2's "> 60 %", F5's rise from 4 to
// 8 ranks and F6 are stated.
func forEachSuite(t *testing.T, test func(t *testing.T, s *Suite)) {
	t.Run("quick", func(t *testing.T) { test(t, quickSuite) })
	t.Run("paper", func(t *testing.T) { test(t, paperSuite()) })
}

func quickConfig() Config {
	c := Quick()
	c.Procs = []int{1, 2, 4}
	// A short, stable workload keeps the suite fast.
	c.MD = md.PMEDefaultConfig()
	c.MD.Temperature = 100
	return c
}

// figure looks a registry entry up; an unknown id fails the test.
func figure(t testing.TB, id string) Figure {
	t.Helper()
	fig, ok := Lookup(id)
	if !ok {
		t.Fatalf("no figure %q in the registry", id)
	}
	return fig
}

// figureRows runs one registry figure's cells on s as one batch.
func figureRows(t testing.TB, s *Suite, id string) []Row {
	t.Helper()
	rows, err := s.Rows(figure(t, id))
	if err != nil {
		t.Fatal(err)
	}
	return rows[0]
}

func TestBreakdownPercent(t *testing.T) {
	b := Breakdown{Comp: 2, Comm: 1, Sync: 1}
	c, m, s := b.Percent()
	if c != 50 || m != 25 || s != 25 {
		t.Fatalf("percent = %v %v %v", c, m, s)
	}
	if z, _, _ := (Breakdown{}).Percent(); z != 0 {
		t.Fatal("zero breakdown should give zero percent")
	}
	if b.Total() != 4 {
		t.Fatalf("total %v", b.Total())
	}
}

func TestFig3ShapeF1(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s *Suite) {
		rows := figureRows(t, s, "3")
		if len(rows) != len(s.Cfg.Procs) {
			t.Fatalf("rows = %d", len(rows))
		}
		seq := rows[0]
		if seq.P() != 1 {
			t.Fatal("first row should be sequential")
		}
		// F1: sequentially, PME is slightly less than half the total.
		frac := pmeWall(seq) / totalWall(seq)
		if frac < 0.3 || frac > 0.55 {
			t.Fatalf("sequential PME fraction %.2f out of paper range", frac)
		}
		// F1: PME time at 2 processors exceeds the sequential PME time.
		if pmeWall(rows[1]) <= pmeWall(seq) {
			t.Fatalf("PME(2)=%g not above PME(1)=%g", pmeWall(rows[1]), pmeWall(seq))
		}
		// Classic part must parallelize.
		if classicWall(rows[1]) >= classicWall(seq) {
			t.Fatalf("classic did not speed up: %g vs %g", classicWall(rows[1]), classicWall(seq))
		}
	})
}

func TestFig4ShapeF2(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s *Suite) {
		rows := figureRows(t, s, "4")
		// Sequential: 100% computation.
		cc, cm, cs := classicSplit(rows[0]).Percent()
		if cc < 99.9 || cm > 0.1 || cs > 0.1 {
			t.Fatalf("sequential breakdown not pure compute: %v %v %v", cc, cm, cs)
		}
		// Overheads grow with processor count for both phases.
		overhead := func(b Breakdown) float64 {
			_, m, s := b.Percent()
			return m + s
		}
		last := len(rows) - 1
		if overhead(classicSplit(rows[last])) <= overhead(classicSplit(rows[1])) {
			t.Fatalf("classic overhead not growing: %v then %v", overhead(classicSplit(rows[1])), overhead(classicSplit(rows[last])))
		}
		// PME overhead is the dominant problem (paper: >50% already at 2).
		if overhead(pmeSplit(rows[1])) < 30 {
			t.Fatalf("PME overhead at p=2 only %.1f%%", overhead(pmeSplit(rows[1])))
		}
	})
}

func TestFig56ShapeF3(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s *Suite) {
		rows := figureRows(t, s, "5")
		var last []Row // each network's stretch of the sweep ends at its largest processor count
		for i, r := range rows {
			if i+1 == len(rows) || rows[i+1].Network() != r.Network() {
				last = append(last, r)
			}
		}
		if len(last) != 3 {
			t.Fatalf("networks = %d", len(last))
		}
		tcp, score, myri := totalSum(last[0]), totalSum(last[1]), totalSum(last[2])
		// F3: Myrinet fastest; SCore recovers most of the gap on the same wire.
		if !(myri < score && score < tcp) {
			t.Fatalf("network ordering violated: tcp=%g score=%g myrinet=%g", tcp, score, myri)
		}
		if (tcp - score) < (score - myri) {
			t.Fatalf("SCore did not recover most of Myrinet's benefit: tcp=%g score=%g myri=%g", tcp, score, myri)
		}
	})
}

func TestFig7ShapeF4(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s *Suite) {
		spread := map[string]float64{}
		avg := map[string]float64{}
		for _, r := range figureRows(t, s, "7") {
			if r.P() != 4 {
				continue
			}
			spread[r.Network()] = (maxMBs(r) - minMBs(r)) / maxMBs(r)
			avg[r.Network()] = avgMBs(r)
		}
		// F4: TCP slowest and most variable; Myrinet fastest.
		if !(avg["Myrinet"] > avg["SCore on Ethernet"] && avg["SCore on Ethernet"] > avg["TCP/IP on Ethernet"]) {
			t.Fatalf("speed ordering violated: %v", avg)
		}
		if spread["TCP/IP on Ethernet"] <= spread["SCore on Ethernet"] {
			t.Fatalf("TCP variability %v not above SCore %v", spread["TCP/IP on Ethernet"], spread["SCore on Ethernet"])
		}
	})
}

func TestFig8ShapeF5(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s *Suite) {
		last, below := s.topProcs(), s.Cfg.Procs[len(s.Cfg.Procs)-2]
		byMW := map[string]Row{} // at the largest size
		var cmpiBelow float64
		for _, r := range figureRows(t, s, "8") {
			if r.P() == last {
				byMW[r.Cell.Middleware.String()] = r
			}
			if r.P() == below && r.Cell.Middleware == pmd.MiddlewareCMPI {
				cmpiBelow = totalWall(r)
			}
		}
		mpiT, cmpiT := totalWall(byMW["MPI"]), totalWall(byMW["CMPI"])
		if cmpiT <= mpiT {
			t.Fatalf("F5 violated: CMPI %g not slower than MPI %g at p=%d", cmpiT, mpiT, last)
		}
		// F5: CMPI's time rises over the last doubling of the ranks.
		if cmpiT <= cmpiBelow {
			t.Fatalf("F5 violated: CMPI %g at p=%d not above %g at p=%d", cmpiT, last, cmpiBelow, below)
		}
		// CMPI books more synchronization than MPI at the largest size.
		if totalSplit(byMW["CMPI"]).Sync <= totalSplit(byMW["MPI"]).Sync {
			t.Fatal("CMPI sync not dominant")
		}
	})
}

func TestFig9ShapeF6(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s *Suite) {
		total := map[string]float64{}
		for _, r := range figureRows(t, s, "9") {
			total[r.Network()+"-"+string(rune('0'+r.CPUs))+"-"+string(rune('0'+r.P()))] = totalWall(r)
		}
		lk := string(rune('0' + s.topProcs()))
		// F6: dual-processor hurts on TCP...
		if total["TCP/IP on Ethernet-2-"+lk] <= total["TCP/IP on Ethernet-1-"+lk] {
			t.Fatalf("dual TCP (%g) not slower than uni TCP (%g)", total["TCP/IP on Ethernet-2-"+lk], total["TCP/IP on Ethernet-1-"+lk])
		}
		// ...but not (much) on Myrinet.
		if total["Myrinet-2-"+lk] > total["Myrinet-1-"+lk]*1.25 {
			t.Fatalf("dual Myrinet degraded too much: %g vs %g", total["Myrinet-2-"+lk], total["Myrinet-1-"+lk])
		}
	})
}

// TestDistanceFromThePaper logs, cell by cell, how far the paper's
// protocol lands from the values EXPERIMENTS.md reads off the paper's bar
// charts (±10 % reading error; a bound where the paper states one). The
// residuals are reported, not gated: the shape tests above gate F1–F6.
func TestDistanceFromThePaper(t *testing.T) {
	at := func(id string, p int, keep func(Row) bool) Row {
		for _, r := range figureRows(t, paperSuite(), id) {
			if r.P() == p && keep(r) {
				return r
			}
		}
		t.Fatalf("figure %s has no such row at p=%d", id, p)
		return Row{}
	}
	all := func(Row) bool { return true }
	on := func(net string) func(Row) bool { return func(r Row) bool { return r.Network() == net } }
	cmpi := func(r Row) bool { return r.Cell.Middleware == pmd.MiddlewareCMPI }
	overhead := func(b Breakdown) float64 { _, m, s := b.Percent(); return m + s }
	for _, c := range []struct {
		cell  string
		model float64
		rel   string // "≈" for a chart reading, else the paper's bound
		paper float64
	}{
		{"fig 3 total (s), p=1", totalWall(at("3", 1, all)), "≈", 6.3},
		{"fig 3 total (s), p=2", totalWall(at("3", 2, all)), "≈", 5.0},
		{"fig 3 total (s), p=4", totalWall(at("3", 4, all)), "≈", 5.4},
		{"fig 3 total (s), p=8", totalWall(at("3", 8, all)), "≈", 6.2},
		{"fig 4 classic comm+sync (%), p=2", overhead(classicSplit(at("4", 2, all))), "<", 10},
		{"fig 4 classic comm+sync (%), p=8", overhead(classicSplit(at("4", 8, all))), ">", 60},
		{"fig 4 PME comm+sync (%), p=2", overhead(pmeSplit(at("4", 2, all))), ">", 50},
		{"fig 4 PME comm+sync (%), p=8", overhead(pmeSplit(at("4", 8, all))), ">", 75},
		{"fig 5 TCP/IP total (s), p=8", totalSum(at("5", 8, on("TCP/IP on Ethernet"))), "≈", 6.2},
		{"fig 5 SCore total (s), p=8", totalSum(at("5", 8, on("SCore on Ethernet"))), "≈", 2.2},
		{"fig 5 Myrinet total (s), p=8", totalSum(at("5", 8, on("Myrinet"))), "≈", 1.8},
		{"fig 8 CMPI total (s), p=8", totalWall(at("8", 8, cmpi)), "≈", 13},
	} {
		res := (c.model - c.paper) / c.paper
		held := map[string]bool{"≈": math.Abs(res) <= 0.1, "<": c.model < c.paper, ">": c.model > c.paper}[c.rel]
		verdict := "holds"
		if !held {
			verdict = "OUTSIDE"
		}
		t.Logf("%-34s model %6.2f  paper %s %5.1f  residual %+6.1f %%  %s", c.cell, c.model, c.rel, c.paper, 100*res, verdict)
	}
}

func TestFactorialCoversAllCells(t *testing.T) {
	rows := figureRows(t, quickSuite, "factorial")
	// 3 networks × 2 middlewares × 2 node types = 12 cells (p divisible by 2).
	if len(rows) != 12 {
		t.Fatalf("factorial cells = %d, want 12", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		key := r.Network() + r.Cell.Middleware.String() + string(rune('0'+r.CPUs))
		if seen[key] {
			t.Fatalf("duplicate cell %s", key)
		}
		seen[key] = true
		if totalWall(r) <= 0 || math.IsNaN(totalWall(r)) {
			t.Fatalf("bad total in %v", r.Cell)
		}
	}
}

// TestZeroConfigPlansEveryFigure: a hand-built Config that names no
// ladder gets the paper's, once, when the suite is built — so every
// registry entry plans its rows (the factorial and the ablation index the
// last processor count).
func TestZeroConfigPlansEveryFigure(t *testing.T) {
	quick := quickConfig()
	s := freshSuite(Config{Steps: quick.Steps, Cost: quick.Cost, MD: quick.MD})
	paper := Default()
	for _, ladder := range []struct {
		name      string
		got, want []int
	}{
		{"Procs", s.Cfg.Procs, paper.Procs},
		{"CeilingProcs", s.Cfg.CeilingProcs, paper.CeilingProcs},
		{"RecoveryProcs", s.Cfg.RecoveryProcs, paper.RecoveryProcs},
		{"RecoveryCrashes", s.Cfg.RecoveryCrashes, paper.RecoveryCrashes},
	} {
		if !slices.Equal(ladder.got, ladder.want) {
			t.Errorf("%s = %v, want the paper's %v", ladder.name, ladder.got, ladder.want)
		}
	}
	for _, fig := range Registry() {
		if !fig.HasData() {
			continue
		}
		if rows := fig.plan(s); len(rows) == 0 {
			t.Errorf("figure %s plans no rows", fig.ID)
		}
	}
}

func TestSuiteCaching(t *testing.T) {
	s := NewSuite(quickConfig())
	a, err := s.RunDecomp(netmodel.MyrinetGM(), 2, 1, pmd.MiddlewareMPI, s.Cfg.Decomp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.RunDecomp(netmodel.MyrinetGM(), 2, 1, pmd.MiddlewareMPI, s.Cfg.Decomp)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache did not return the same result pointer")
	}
	if _, err := s.RunDecomp(netmodel.MyrinetGM(), 3, 2, pmd.MiddlewareMPI, s.Cfg.Decomp); err == nil {
		t.Fatal("indivisible processor count accepted")
	}
}

func TestSystemMatchesPaperScale(t *testing.T) {
	if n := quickSuite.System().N(); n != 3552 {
		t.Fatalf("workload has %d atoms, want 3552", n)
	}
}

func TestFactorAnalysis(t *testing.T) {
	a, err := factorialEffects(figureRows(t, quickSuite, "effects"))
	if err != nil {
		t.Fatal(err)
	}
	if a.GrandMean <= 0 {
		t.Fatalf("grand mean %v", a.GrandMean)
	}
	// The paper's conclusion: the communication factors (network and
	// middleware) dominate; the node configuration alone does not.
	if d := a.DominantFactor(); d != "network" && d != "middleware" {
		t.Fatalf("dominant factor %q, expected a communication factor", d)
	}
	var b strings.Builder
	if err := renderEffects(&b, a); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Allocation of variation") {
		t.Fatalf("render output:\n%s", b.String())
	}
	var c strings.Builder
	if err := csvEffects(&c, a); err != nil {
		t.Fatal(err)
	}
	if strings.Count(c.String(), "\n") < 5 {
		t.Fatalf("csv too short:\n%s", c.String())
	}
}

func TestAblationShape(t *testing.T) {
	rows := figureRows(t, quickSuite, "ablation")
	if len(rows) != 4 {
		t.Fatalf("variants = %d", len(rows))
	}
	base := totalWall(rows[0])
	both := totalWall(rows[3])
	// Software fixes alone must recover a meaningful fraction of the loss.
	if both >= base {
		t.Fatalf("software fixes did not help: %g vs baseline %g", both, base)
	}
	var b strings.Builder
	if err := quickSuite.Render(&b, figure(t, "ablation"), rows, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Ablation") {
		t.Fatal("render output missing header")
	}
	var c strings.Builder
	if err := quickSuite.Render(&c, figure(t, "ablation"), rows, true); err != nil {
		t.Fatal(err)
	}
	if strings.Count(c.String(), "\n") != 5 {
		t.Fatalf("csv rows: %q", c.String())
	}
}
