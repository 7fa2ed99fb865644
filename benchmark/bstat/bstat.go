// Package bstat holds the arithmetic the host-clock benchmark and its
// compare tool share: order statistics computed the way the PR driver
// computes them (Python's statistics.quantiles(values, n=4)), the
// BENCHMARK.json manifest with each metric's direction and bound, the
// result-set file format, and the ok / regressed / unresolved verdict of
// the choosing-metrics guide (§6.5).
package bstat

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/stats"
)

// Median returns the middle value of vs (mean of the two middle values
// for an even count); 0 for no values.
func Median(vs []float64) float64 { return stats.Summarize(vs).Median }

// Quartiles returns the first quartile, median and third quartile of vs
// exactly as Python's statistics.quantiles(vs, n=4) (the default
// "exclusive" method) gives them, so a spread computed here equals the
// one the driver computes. A single value is its own quartiles.
func Quartiles(vs []float64) (q1, med, q3 float64) {
	if len(vs) == 0 {
		panic("bstat: quartiles of nothing")
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		// As in the Python source: clamp the rank first, then take the
		// remainder against the clamped rank, which extrapolates beyond
		// the ends of a short sample.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Percentile returns the p-th percentile (0 < p < 1) by linear
// interpolation between closest ranks; 0 for no values.
func Percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Spread is the interquartile distance as a share of the median — the
// quantity the driver holds against a metric's bound.
func Spread(vs []float64) float64 {
	q1, med, q3 := Quartiles(vs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// MaxDeviation is the worst relative disagreement between any two values:
// (max − min) / min. It is what comparing the two most distant sets of a
// self-agreement run would report, and what that run is judged by.
func MaxDeviation(vs []float64) float64 {
	lo, hi := minMax(vs)
	if lo == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(lo)
}

// ---------------------------------------------------------------------------
// Manifest

// MetricDef is one metric of BENCHMARK.json. Bound is zero for per-layer
// metrics, which are never gated.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// Workload is one workload of BENCHMARK.json.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Manifest is BENCHMARK.json.
type Manifest struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []Workload  `json:"workloads"`
	EndToEnd   []MetricDef `json:"end_to_end"`
	PerLayer   []MetricDef `json:"per_layer"`
}

// LoadManifest reads and sanity-checks a BENCHMARK.json.
func LoadManifest(path string) (*Manifest, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(m.Workloads) == 0 || len(m.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no workloads or end-to-end metrics", path)
	}
	for _, d := range m.EndToEnd {
		if d.Better != "lower" && d.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better must be lower or higher, got %q", path, d.Name, d.Better)
		}
		if d.Bound <= 0 {
			return nil, fmt.Errorf("%s: end-to-end metric %s has no bound", path, d.Name)
		}
	}
	return &m, nil
}

// ---------------------------------------------------------------------------
// Result sets

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Record is one benchmark invocation as stored in a result-set file: the
// driver-facing result object plus which workload, seed and mode made it.
// Truncated marks a run the wall cap cut short: it did less than the fixed
// work, so its numbers do not compare with a full run's.
type Record struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Trace     bool             `json:"trace"`
	Truncated bool             `json:"truncated,omitempty"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// ReadSet parses the result-set file at path.
func ReadSet(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open result set: %w", err)
	}
	defer f.Close()
	return ParseRecords(f, path)
}

// ParseRecords parses a result set: one JSON Record per line, blank lines
// skipped. name is used in error messages.
func ParseRecords(r io.Reader, name string) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", name, line, err)
		}
		if rec.Workload == "" {
			return nil, fmt.Errorf("%s:%d: record names no workload", name, line)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", name, err)
	}
	return out, nil
}

// AppendRecord appends rec as one line to the result-set file at path.
func AppendRecord(path string, rec Record) error {
	buf, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encode record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("open result set: %w", err)
	}
	if _, err := f.Write(append(buf, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append to %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

// values collects one metric of one workload across a set. Traced records
// are skipped: end-to-end numbers only ever come from untraced runs.
func values(set []Record, workload, metric string) []float64 {
	var vs []float64
	for _, r := range set {
		if r.Workload != workload || r.Trace {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// failedShare is failed / attempted over one workload of a set.
func failedShare(set []Record, workload string) float64 {
	var att, fail int
	for _, r := range set {
		if r.Workload == workload && !r.Trace {
			att += r.Attempted
			fail += r.Failed
		}
	}
	if att == 0 {
		return 0
	}
	return float64(fail) / float64(att)
}

// ---------------------------------------------------------------------------
// Verdicts

// Verdict is the outcome of holding one workload × metric row against its
// bound.
type Verdict string

const (
	// OK: the new median is no worse than the base by more than the bound.
	OK Verdict = "ok"
	// Regressed: worse by more than the bound, and the runs resolve it.
	Regressed Verdict = "regressed"
	// Unresolved: the run-to-run spread exceeds the bound and the two
	// sets overlap, so the runs cannot tell the difference from noise.
	Unresolved Verdict = "unresolved"
)

// Row is one workload × end-to-end metric comparison.
type Row struct {
	Workload string
	Metric   MetricDef
	BaseN    int
	NewN     int
	BaseQ    [3]float64 // q1, median, q3
	NewQ     [3]float64
	Ratio    float64 // new median / base median
	Verdict  Verdict
}

// Judge compares one metric's values. The rule, from the choosing-metrics
// guide: where either side's spread is wider than the bound, the row is
// unresolved — unless every new run reads better than every base run —
// and otherwise it is ok exactly when the new median is within the bound
// of the base median in the metric's worse direction.
func Judge(def MetricDef, base, cur []float64) Row {
	row := Row{Metric: def, BaseN: len(base), NewN: len(cur)}
	row.BaseQ[0], row.BaseQ[1], row.BaseQ[2] = Quartiles(base)
	row.NewQ[0], row.NewQ[1], row.NewQ[2] = Quartiles(cur)
	row.Ratio = row.NewQ[1] / row.BaseQ[1]

	worse := row.Ratio - 1 // relative change in the worse direction
	if def.Better == "higher" {
		worse = 1 - row.Ratio
	}
	noisy := Spread(base) > def.Bound || Spread(cur) > def.Bound
	switch {
	case noisy && !allBetter(def, base, cur) && overlap(base, cur):
		row.Verdict = Unresolved
	case worse > def.Bound:
		row.Verdict = Regressed
	default:
		row.Verdict = OK
	}
	return row
}

func minMax(vs []float64) (lo, hi float64) {
	s := stats.Summarize(vs)
	return s.Min, s.Max
}

// overlap reports whether the ranges of the two sets intersect.
func overlap(a, b []float64) bool {
	alo, ahi := minMax(a)
	blo, bhi := minMax(b)
	return alo <= bhi && blo <= ahi
}

// allBetter reports whether every run of cur reads better than every run
// of base.
func allBetter(def MetricDef, base, cur []float64) bool {
	blo, bhi := minMax(base)
	clo, chi := minMax(cur)
	if def.Better == "higher" {
		return clo > bhi
	}
	return chi < blo
}

// Comparison is the full table plus the failed-share check.
type Comparison struct {
	Rows []Row
	// FailedRose lists workloads whose failed share is higher in the new
	// set than in the base set.
	FailedRose []string
}

// Pass reports whether every row is ok and no workload fails more often.
func (c Comparison) Pass() bool {
	for _, r := range c.Rows {
		if r.Verdict != OK {
			return false
		}
	}
	return len(c.FailedRose) == 0
}

// Compare judges every workload × end-to-end metric of the manifest. A
// row missing from either set is an error: a silent gap would read as a
// pass. So is a truncated run: work is fixed, and a run that did less of
// it is not a sample of the same quantity.
func Compare(m *Manifest, base, cur []Record) (Comparison, error) {
	var c Comparison
	for _, set := range [][]Record{base, cur} {
		for _, r := range set {
			if r.Truncated && !r.Trace {
				return c, fmt.Errorf("workload %s seed %d: the run was cut short by the wall cap (%d ops); rerun it", r.Workload, r.Seed, r.Attempted)
			}
		}
	}
	for _, w := range m.Workloads {
		for _, def := range m.EndToEnd {
			b := values(base, w.Name, def.Name)
			n := values(cur, w.Name, def.Name)
			if len(b) == 0 || len(n) == 0 {
				return c, fmt.Errorf("workload %s metric %s: %d base and %d new values", w.Name, def.Name, len(b), len(n))
			}
			row := Judge(def, b, n)
			row.Workload = w.Name
			c.Rows = append(c.Rows, row)
		}
		if failedShare(cur, w.Name) > failedShare(base, w.Name) {
			c.FailedRose = append(c.FailedRose, w.Name)
		}
	}
	return c, nil
}

// WriteTable renders the comparison, one row per workload × metric, every
// ratio with its base.
func (c Comparison) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-12s %-16s %-6s %3s %36s %3s %36s %16s %6s  %s\n",
		"workload", "metric", "unit", "n", "base q1 / median / q3", "n", "new q1 / median / q3", "new/base", "bound", "verdict")
	for _, r := range c.Rows {
		fmt.Fprintf(w, "%-12s %-16s %-6s %3d %36s %3d %36s %16s %6.2f  %s\n",
			r.Workload, r.Metric.Name, r.Metric.Unit,
			r.BaseN, triple(r.BaseQ), r.NewN, triple(r.NewQ),
			fmt.Sprintf("%.4f of %.4g", r.Ratio, r.BaseQ[1]), r.Metric.Bound, r.Verdict)
	}
	for _, name := range c.FailedRose {
		fmt.Fprintf(w, "%s: failed share rose\n", name)
	}
}

func triple(q [3]float64) string {
	return fmt.Sprintf("%.5g / %.5g / %.5g", q[0], q[1], q[2])
}

// ---------------------------------------------------------------------------
// Self-agreement

// AgreementRow is one workload × metric of a self-agreement run: how far
// repeated sets of the same code disagree, against the metric's bound.
type AgreementRow struct {
	Workload string
	Metric   MetricDef
	Values   []float64 // one per set
	MaxDev   float64   // (max − min) / min
	Holds    bool      // MaxDev within the bound
}

// Agreement tabulates the sets of one --repeat run. A set's value of a
// metric is the median over the set's invocations, which is what Compare
// and the driver hold against the bound.
func Agreement(m *Manifest, sets [][]Record) []AgreementRow {
	var rows []AgreementRow
	for _, w := range m.Workloads {
		for _, def := range m.EndToEnd {
			var vs []float64
			for _, set := range sets {
				if in := values(set, w.Name, def.Name); len(in) > 0 {
					vs = append(vs, Median(in))
				}
			}
			if len(vs) == 0 {
				continue
			}
			dev := MaxDeviation(vs)
			rows = append(rows, AgreementRow{Workload: w.Name, Metric: def, Values: vs, MaxDev: dev, Holds: dev <= def.Bound})
		}
	}
	return rows
}

// WriteAgreement renders the self-agreement table as Markdown (the form
// checked into the README).
func WriteAgreement(w io.Writer, rows []AgreementRow) {
	fmt.Fprintln(w, "| workload | metric | unit | sets | median | min | max | max dev | bound | holds |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|")
	for _, r := range rows {
		lo, hi := minMax(r.Values)
		holds := "yes"
		if !r.Holds {
			holds = "NO"
		}
		fmt.Fprintf(w, "| %s | %s | %s | %d | %.5g | %.5g | %.5g | %.3f | %.2f | %s |\n",
			r.Workload, r.Metric.Name, r.Metric.Unit, len(r.Values),
			Median(r.Values), lo, hi, r.MaxDev, r.Metric.Bound, holds)
	}
}
