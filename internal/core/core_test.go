package core

import (
	"strings"
	"testing"

	"repro/internal/figures"
)

// sharedStudy is reused across tests: the suite caches runs, so building it
// once keeps the package fast.
var sharedStudy = NewStudy(Options{Quick: true})

func quickStudy() *Study { return sharedStudy }

func TestFigureIDs(t *testing.T) {
	ids := FigureIDs()
	if len(ids) != 16 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestUnknownFigure(t *testing.T) {
	s := quickStudy()
	var b strings.Builder
	if err := s.Figure("42", &b, FormatText); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestFigureTextAndCSV(t *testing.T) {
	s := quickStudy()
	for _, id := range FigureIDs() {
		var txt, csv strings.Builder
		if err := s.Figure(id, &txt, FormatText); err != nil {
			t.Fatalf("figure %s text: %v", id, err)
		}
		if err := s.Figure(id, &csv, FormatCSV); err != nil {
			t.Fatalf("figure %s csv: %v", id, err)
		}
		if strings.Count(txt.String(), "\n") < 3 {
			t.Fatalf("figure %s text too short:\n%s", id, txt.String())
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

// TestAll: the whole report, one batch of cells, is the same bytes from
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
			for _, marker := range []string{"Figure 3", "Figure 7", "factorial"} {
				if !strings.Contains(serial, marker) {
					t.Fatalf("All output missing %q", marker)
				}
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
