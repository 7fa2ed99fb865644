package core

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/figures"
)

// sharedStudy is reused across tests: the suite caches runs, so building it
// once keeps the package fast.
var sharedStudy = NewStudy(Options{Quick: true})

func quickStudy() *Study { return sharedStudy }

// TestFigureIDs: the ids are the registry's, each once.
func TestFigureIDs(t *testing.T) {
	ids := FigureIDs()
	if len(ids) != 16 || !sort.StringsAreSorted(ids) {
		t.Fatalf("ids = %v", ids)
	}
	inRegistry := map[string]int{}
	for _, fig := range figures.Registry() {
		inRegistry[fig.ID]++
	}
	for _, id := range ids {
		if inRegistry[id] != 1 {
			t.Errorf("id %q occurs %d times in the registry", id, inRegistry[id])
		}
	}
	if len(inRegistry) != len(ids) {
		t.Errorf("registry has %d distinct ids, FigureIDs %d", len(inRegistry), len(ids))
	}
}

func TestUnknownFigure(t *testing.T) {
	s := quickStudy()
	var b strings.Builder
	if err := s.Figure("42", &b, FormatText); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// golden reads testdata/quick/<name>: the bytes `charmmbench -quick` wrote
// for the figure at the commit before the figures became registry entries
// (capture them on a parent checkout and cmp; see the verify skill).
func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "quick", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestFigureTextAndCSV(t *testing.T) {
	s := quickStudy()
	for _, fig := range figures.Registry() {
		id := fig.ID
		var txt, csv strings.Builder
		if err := s.Figure(id, &txt, FormatText); err != nil {
			t.Fatalf("figure %s text: %v", id, err)
		}
		if txt.String() != golden(t, id+".txt") {
			t.Errorf("figure %s text differs from testdata/quick/%s.txt:\n%s", id, id, txt.String())
		}
		err := s.Figure(id, &csv, FormatCSV)
		if !fig.HasData() {
			if err == nil || csv.Len() != 0 {
				t.Errorf("figure %s is a diagram, yet its CSV rendered (error %v):\n%s", id, err, csv.String())
			}
			continue
		}
		if err != nil {
			t.Fatalf("figure %s csv: %v", id, err)
		}
		if csv.String() != golden(t, id+".csv") {
			t.Errorf("figure %s csv differs from testdata/quick/%s.csv:\n%s", id, id, csv.String())
		}
		lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
		if len(lines) < 2 {
			t.Fatalf("figure %s csv too short", id)
		}
		cols := strings.Count(lines[0], ",")
		for i, ln := range lines {
			if strings.Count(ln, ",") != cols {
				t.Fatalf("figure %s csv ragged at line %d:\n%s", id, i, csv.String())
			}
		}
	}
}

// TestAll: the whole report, one batch of cells, is the golden bytes from
// the same RunStats however many of its cells are in flight.
func TestAll(t *testing.T) {
	var serial string
	var serialStats figures.RunStats
	for _, workers := range []int{1, 2, 4, 8} {
		s := NewStudy(Options{Quick: true, Workers: workers})
		var b strings.Builder
		if err := s.All(&b); err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			serial, serialStats = b.String(), s.Stats()
			// The report is the paper entries of the registry, in its
			// order, each followed by a blank line.
			var want strings.Builder
			for _, fig := range figures.Registry() {
				if fig.Paper {
					want.WriteString(golden(t, fig.ID+".txt") + "\n")
				}
			}
			if serial != want.String() || serial != golden(t, "all.txt") {
				t.Fatalf("All output differs from testdata/quick/all.txt or from its paper figures in registry order:\n%s", serial)
			}
			continue
		}
		if b.String() != serial {
			t.Fatalf("All output at Workers=%d differs from the serial bytes", workers)
		}
		if st := s.Stats(); st != serialStats {
			t.Fatalf("RunStats %+v at Workers=%d, serial %+v", st, workers, serialStats)
		}
	}
}

func TestOptionsOverrides(t *testing.T) {
	s := NewStudy(Options{Quick: true, Steps: 1, Procs: []int{1, 2}, SystemSeed: 5, ClusterSeed: 6})
	if s.Suite.Cfg.Steps != 1 {
		t.Fatalf("steps = %d", s.Suite.Cfg.Steps)
	}
	if len(s.Suite.Cfg.Procs) != 2 {
		t.Fatalf("procs = %v", s.Suite.Cfg.Procs)
	}
	if s.Suite.Cfg.SystemSeed != 5 || s.Suite.Cfg.ClusterSeed != 6 {
		t.Fatal("seeds not applied")
	}
}

func TestRunSequential(t *testing.T) {
	s := NewStudy(Options{Quick: true, Steps: 1, Procs: []int{1}})
	reports := s.RunSequential(2)
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	if reports[0].Total() == 0 {
		t.Fatal("zero energy")
	}
}

func TestSystemScale(t *testing.T) {
	if n := quickStudy().System().N(); n != 3552 {
		t.Fatalf("system atoms = %d", n)
	}
}
