package figures

import (
	"math"
	"strings"
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

func quickConfig() Config {
	c := Quick()
	c.Procs = []int{1, 2, 4}
	// A short, stable workload keeps the suite fast.
	c.MD = md.PMEDefaultConfig()
	c.MD.Temperature = 100
	return c
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
	rows, err := quickSuite.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(quickSuite.Cfg.Procs) {
		t.Fatalf("rows = %d", len(rows))
	}
	seq := rows[0]
	if seq.P != 1 {
		t.Fatal("first row should be sequential")
	}
	// F1: sequentially, PME is slightly less than half the total.
	frac := seq.PME / seq.Total()
	if frac < 0.3 || frac > 0.55 {
		t.Fatalf("sequential PME fraction %.2f out of paper range", frac)
	}
	// F1: PME time at 2 processors exceeds the sequential PME time.
	if rows[1].PME <= seq.PME {
		t.Fatalf("PME(2)=%g not above PME(1)=%g", rows[1].PME, seq.PME)
	}
	// Classic part must parallelize.
	if rows[1].Classic >= seq.Classic {
		t.Fatalf("classic did not speed up: %g vs %g", rows[1].Classic, seq.Classic)
	}
}

func TestFig4ShapeF2(t *testing.T) {
	rows, err := quickSuite.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	// Sequential: 100% computation.
	cc, cm, cs := rows[0].Classic.Percent()
	if cc < 99.9 || cm > 0.1 || cs > 0.1 {
		t.Fatalf("sequential breakdown not pure compute: %v %v %v", cc, cm, cs)
	}
	// Overheads grow with processor count for both phases.
	overhead := func(b Breakdown) float64 {
		_, m, s := b.Percent()
		return m + s
	}
	last := len(rows) - 1
	if overhead(rows[last].Classic) <= overhead(rows[1].Classic) {
		t.Fatalf("classic overhead not growing: %v then %v", overhead(rows[1].Classic), overhead(rows[last].Classic))
	}
	// PME overhead is the dominant problem (paper: >50% already at 2).
	if overhead(rows[1].PME) < 30 {
		t.Fatalf("PME overhead at p=2 only %.1f%%", overhead(rows[1].PME))
	}
}

func TestFig56ShapeF3(t *testing.T) {
	nets, err := quickSuite.Fig56()
	if err != nil {
		t.Fatal(err)
	}
	if len(nets) != 3 {
		t.Fatalf("networks = %d", len(nets))
	}
	total := func(n NetworkRows, i int) float64 {
		return n.Rows[i].Classic.Total() + n.Rows[i].PME.Total()
	}
	last := len(nets[0].Rows) - 1
	tcp, score, myri := total(nets[0], last), total(nets[1], last), total(nets[2], last)
	// F3: Myrinet fastest; SCore recovers most of the gap on the same wire.
	if !(myri < score && score < tcp) {
		t.Fatalf("network ordering violated: tcp=%g score=%g myrinet=%g", tcp, score, myri)
	}
	if (tcp - score) < (score - myri) {
		t.Fatalf("SCore did not recover most of Myrinet's benefit: tcp=%g score=%g myri=%g", tcp, score, myri)
	}
}

func TestFig7ShapeF4(t *testing.T) {
	rows, err := quickSuite.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	spread := map[string]float64{}
	avg := map[string]float64{}
	for _, r := range rows {
		if r.P != 4 {
			continue
		}
		spread[r.Network] = (r.MaxMBs - r.MinMBs) / r.MaxMBs
		avg[r.Network] = r.AvgMBs
	}
	// F4: TCP slowest and most variable; Myrinet fastest.
	if !(avg["Myrinet"] > avg["SCore on Ethernet"] && avg["SCore on Ethernet"] > avg["TCP/IP on Ethernet"]) {
		t.Fatalf("speed ordering violated: %v", avg)
	}
	if spread["TCP/IP on Ethernet"] <= spread["SCore on Ethernet"] {
		t.Fatalf("TCP variability %v not above SCore %v", spread["TCP/IP on Ethernet"], spread["SCore on Ethernet"])
	}
}

func TestFig8ShapeF5(t *testing.T) {
	rows, err := quickSuite.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Fig8Row{}
	for _, r := range rows {
		byKey[r.Middleware+string(rune('0'+r.P))] = r
	}
	last := quickSuite.Cfg.Procs[len(quickSuite.Cfg.Procs)-1]
	lk := string(rune('0' + last))
	mpiT := byKey["MPI"+lk].Classic + byKey["MPI"+lk].PME
	cmpiT := byKey["CMPI"+lk].Classic + byKey["CMPI"+lk].PME
	if cmpiT <= mpiT {
		t.Fatalf("F5 violated: CMPI %g not slower than MPI %g at p=%d", cmpiT, mpiT, last)
	}
	// CMPI books more synchronization than MPI at the largest size.
	if byKey["CMPI"+lk].Total.Sync <= byKey["MPI"+lk].Total.Sync {
		t.Fatal("CMPI sync not dominant")
	}
}

func TestFig9ShapeF6(t *testing.T) {
	rows, err := quickSuite.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	total := map[string]float64{}
	for _, r := range rows {
		total[r.Network+"-"+string(rune('0'+r.CPUs))+"-"+string(rune('0'+r.P))] = r.Classic + r.PME
	}
	last := quickSuite.Cfg.Procs[len(quickSuite.Cfg.Procs)-1]
	lk := string(rune('0' + last))
	// F6: dual-processor hurts on TCP...
	if total["TCP/IP on Ethernet-2-"+lk] <= total["TCP/IP on Ethernet-1-"+lk] {
		t.Fatalf("dual TCP (%g) not slower than uni TCP (%g)", total["TCP/IP on Ethernet-2-"+lk], total["TCP/IP on Ethernet-1-"+lk])
	}
	// ...but not (much) on Myrinet.
	if total["Myrinet-2-"+lk] > total["Myrinet-1-"+lk]*1.25 {
		t.Fatalf("dual Myrinet degraded too much: %g vs %g", total["Myrinet-2-"+lk], total["Myrinet-1-"+lk])
	}
}

func TestFactorialCoversAllCells(t *testing.T) {
	rows, err := quickSuite.Factorial()
	if err != nil {
		t.Fatal(err)
	}
	// 3 networks × 2 middlewares × 2 node types = 12 cells (p divisible by 2).
	if len(rows) != 12 {
		t.Fatalf("factorial cells = %d, want 12", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		key := r.Network + r.Middleware + string(rune('0'+r.CPUs))
		if seen[key] {
			t.Fatalf("duplicate cell %s", key)
		}
		seen[key] = true
		if r.Total <= 0 || math.IsNaN(r.Total) {
			t.Fatalf("bad total in %+v", r)
		}
	}
}

func TestSuiteCaching(t *testing.T) {
	s := NewSuite(quickConfig())
	a, err := s.Run(netmodel.MyrinetGM(), 2, 1, pmd.MiddlewareMPI)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(netmodel.MyrinetGM(), 2, 1, pmd.MiddlewareMPI)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache did not return the same result pointer")
	}
	if _, err := s.Run(netmodel.MyrinetGM(), 3, 2, pmd.MiddlewareMPI); err == nil {
		t.Fatal("indivisible processor count accepted")
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	f3, err := quickSuite.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	f4, _ := quickSuite.Fig4()
	f56, _ := quickSuite.Fig56()
	f7, _ := quickSuite.Fig7()
	f8, _ := quickSuite.Fig8()
	f9, _ := quickSuite.Fig9()
	fact, _ := quickSuite.Factorial()

	checks := []struct {
		name   string
		render func(w *strings.Builder) error
		want   string
	}{
		{"fig3", func(w *strings.Builder) error { return RenderFig3(w, f3) }, "Figure 3"},
		{"fig4", func(w *strings.Builder) error { return RenderFig4(w, f4) }, "Figure 4"},
		{"fig5", func(w *strings.Builder) error { return RenderFig5(w, f56) }, "Figure 5"},
		{"fig6", func(w *strings.Builder) error { return RenderFig6(w, f56) }, "Figure 6"},
		{"fig7", func(w *strings.Builder) error { return RenderFig7(w, f7) }, "Figure 7"},
		{"fig8", func(w *strings.Builder) error { return RenderFig8(w, f8) }, "Figure 8"},
		{"fig9", func(w *strings.Builder) error { return RenderFig9(w, f9) }, "Figure 9"},
		{"factorial", func(w *strings.Builder) error { return RenderFactorial(w, fact) }, "factorial"},
	}
	for _, c := range checks {
		var b strings.Builder
		if err := c.render(&b); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out := b.String()
		if !strings.Contains(out, c.want) || strings.Count(out, "\n") < 3 {
			t.Fatalf("%s output suspicious:\n%s", c.name, out)
		}
	}
}

func TestSystemMatchesPaperScale(t *testing.T) {
	if n := quickSuite.System().N(); n != 3552 {
		t.Fatalf("workload has %d atoms, want 3552", n)
	}
}

func TestFactorAnalysis(t *testing.T) {
	a, err := quickSuite.FactorAnalysis()
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
	if err := RenderEffects(&b, a); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Allocation of variation") {
		t.Fatalf("render output:\n%s", b.String())
	}
	var c strings.Builder
	if err := CSVEffects(&c, a); err != nil {
		t.Fatal(err)
	}
	if strings.Count(c.String(), "\n") < 5 {
		t.Fatalf("csv too short:\n%s", c.String())
	}
}

func TestAblationShape(t *testing.T) {
	rows, err := quickSuite.Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("variants = %d", len(rows))
	}
	base := rows[0].Total
	both := rows[3].Total
	// Software fixes alone must recover a meaningful fraction of the loss.
	if both >= base {
		t.Fatalf("software fixes did not help: %g vs baseline %g", both, base)
	}
	var b strings.Builder
	if err := RenderAblation(&b, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Ablation") {
		t.Fatal("render output missing header")
	}
	var c strings.Builder
	if err := CSVAblation(&c, rows); err != nil {
		t.Fatal(err)
	}
	if strings.Count(c.String(), "\n") != 5 {
		t.Fatalf("csv rows: %q", c.String())
	}
}
