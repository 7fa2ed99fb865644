package bstat

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// The expected values are what Python 3's statistics.quantiles(vs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 12, 11, 15, 9}, [3]float64{9.5, 11, 13.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		q1, med, q3 := Quartiles(c.in)
		if !near(q1, c.want[0]) || !near(med, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("Quartiles(%v) = %g %g %g, want %v", c.in, q1, med, q3, c.want)
		}
	}
}

func TestMedianSpreadDeviation(t *testing.T) {
	if got := Median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("Median odd = %g, want 3", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median even = %g, want 2.5", got)
	}
	// IQR 8.25−2.75 over median 5.5.
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("Spread = %g, want 1", got)
	}
	if got := MaxDeviation([]float64{100, 104, 98}); !near(got, 6.0/98) {
		t.Errorf("MaxDeviation = %g, want %g", got, 6.0/98)
	}
	if got := Percentile([]float64{0, 10, 20, 30, 40}, 0.9); !near(got, 36) {
		t.Errorf("Percentile 0.9 = %g, want 36", got)
	}
	if in := []float64{3, 1, 2}; Median(in) != 2 || in[0] != 3 {
		t.Errorf("Median reordered its input: %v", in)
	}
}

func TestJudge(t *testing.T) {
	lower := MetricDef{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := MetricDef{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c * 1.005, c * 0.995} }
	cases := []struct {
		name      string
		def       MetricDef
		base, cur []float64
		want      Verdict
	}{
		{"same", lower, tight(100), tight(100), OK},
		{"worse within the bound", lower, tight(100), tight(108), OK},
		{"worse beyond the bound", lower, tight(100), tight(115), Regressed},
		{"lower is better, so lower passes", lower, tight(100), tight(50), OK},
		{"throughput fell beyond the bound", higher, tight(100), tight(85), Regressed},
		{"throughput rose", higher, tight(100), tight(130), OK},
		// The new set's spread exceeds the bound and it straddles the base.
		{"noisy and overlapping", lower, tight(100), []float64{80, 100, 125, 90, 140}, Unresolved},
		// Noisy, but every new run beats every base run: resolved.
		{"noisy but all better", lower, tight(100), []float64{40, 60, 80, 50, 70}, OK},
		// Noisy, disjoint and worse: the difference is resolved.
		{"noisy, disjoint, worse", lower, tight(100), []float64{150, 200, 250, 180, 300}, Regressed},
	}
	for _, c := range cases {
		if got := Judge(c.def, c.base, c.cur).Verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	row := Judge(lower, tight(100), tight(108))
	if !near(row.Ratio, 1.08) || row.BaseN != 5 || row.NewN != 5 || !near(row.BaseQ[1], 100) {
		t.Errorf("row = %+v", row)
	}
}

func testManifest() *Manifest {
	return &Manifest{
		Workloads: []Workload{{Name: "a"}, {Name: "b"}},
		EndToEnd: []MetricDef{
			{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.15},
		},
	}
}

func recordsOf(workload string, failed int, opMS ...float64) []Record {
	var out []Record
	for _, v := range opMS {
		out = append(out, Record{
			Workload: workload, Correct: failed == 0, Attempted: 10, Failed: failed,
			Metrics: map[string]Value{"op_ms": {v, "ms"}, "setup_s": {1, "s"}},
		})
	}
	return out
}

func TestCompare(t *testing.T) {
	m := testManifest()
	base := append(recordsOf("a", 0, 100, 101, 99), recordsOf("b", 0, 50, 51, 49)...)
	same := append(recordsOf("a", 0, 102, 100, 101), recordsOf("b", 0, 49, 50, 51)...)
	c, err := Compare(m, base, same)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Rows) != 4 || !c.Pass() {
		t.Fatalf("same code: %d rows, pass=%v: %+v", len(c.Rows), c.Pass(), c.Rows)
	}
	var sb strings.Builder
	c.WriteTable(&sb)
	for _, want := range []string{"workload", "op_ms", "setup_s", "ok", " of 100"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, sb.String())
		}
	}

	slow := append(recordsOf("a", 0, 100, 101, 99), recordsOf("b", 0, 60, 61, 59)...)
	if c, err = Compare(m, base, slow); err != nil || c.Pass() {
		t.Errorf("a 20%% regression on b passed (err %v)", err)
	}
	failing := append(recordsOf("a", 1, 100, 101, 99), recordsOf("b", 0, 50, 51, 49)...)
	if c, err = Compare(m, base, failing); err != nil || c.Pass() || len(c.FailedRose) != 1 || c.FailedRose[0] != "a" {
		t.Errorf("a risen failed share passed: %+v (err %v)", c.FailedRose, err)
	}
	if _, err := Compare(m, base, recordsOf("a", 0, 100)); err == nil {
		t.Error("a set missing workload b compared without error")
	}
	short := append([]Record(nil), same...)
	short[0].Truncated = true
	if _, err := Compare(m, base, short); err == nil || !strings.Contains(err.Error(), "cut short") {
		t.Errorf("a truncated run compared: %v", err)
	}
	// Traced records never feed an end-to-end row.
	traced := recordsOf("a", 0, 1e6)
	traced[0].Trace = true
	if c, err = Compare(m, base, append(same, traced...)); err != nil || !c.Pass() {
		t.Errorf("a traced record leaked into the comparison (err %v)", err)
	}
}

func TestAgreement(t *testing.T) {
	m := testManifest()
	// Three sets; the first holds three invocations whose median counts.
	sets := [][]Record{
		append(recordsOf("a", 0, 100, 90, 300), recordsOf("b", 0, 50)...),
		append(recordsOf("a", 0, 104), recordsOf("b", 0, 58)...),
		append(recordsOf("a", 0, 98), recordsOf("b", 0, 49)...),
	}
	rows := Agreement(m, sets)
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	if r := rows[0]; r.Workload != "a" || r.Metric.Name != "op_ms" || !r.Holds || !near(r.MaxDev, 6.0/98) {
		t.Errorf("row a/op_ms = %+v", r)
	}
	// 49 to 58 is 18 %, over the 0.10 bound.
	if r := rows[2]; r.Workload != "b" || r.Holds || !near(r.MaxDev, 9.0/49) {
		t.Errorf("row b/op_ms deviates 18%% and holds: %+v", r)
	}
	var sb strings.Builder
	WriteAgreement(&sb, rows)
	if !strings.Contains(sb.String(), "| b | op_ms | ms | 3 |") || !strings.Contains(sb.String(), "| NO |") {
		t.Errorf("table:\n%s", sb.String())
	}
}

func TestResultSetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "set.jsonl")
	want := recordsOf("a", 0, 100, 101)
	want[1].Seed, want[1].Trace = 7, true
	for _, r := range want {
		if err := AppendRecord(path, r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Seed != 7 || !got[1].Trace || got[0].Metrics["op_ms"].Value != 100 || got[0].Metrics["op_ms"].Unit != "ms" {
		t.Errorf("read back %+v", got)
	}
	if _, err := ParseRecords(strings.NewReader("{\"workload\":\"a\"}\n\nnot json\n"), "x"); err == nil || !strings.Contains(err.Error(), "x:3") {
		t.Errorf("a damaged line parsed: %v", err)
	}
	if _, err := ParseRecords(strings.NewReader("{}\n"), "x"); err == nil {
		t.Error("a record without a workload parsed")
	}
}

func TestLoadManifestRejects(t *testing.T) {
	if _, err := LoadManifest(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("a missing manifest loaded")
	}
}
