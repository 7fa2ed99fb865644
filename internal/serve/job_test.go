package serve

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/figures"
)

func TestSpecNormalizeDefaults(t *testing.T) {
	s := JobSpec{Kind: KindRun}
	if err := s.Normalize(); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if s.Atoms != 120 || s.Steps != 4 || s.Seed != 1 || s.Procs != 4 || s.CPUs != 1 || s.Net != "tcp" || s.MW != "mpi" || s.Decomp != "replicated" {
		t.Fatalf("defaults wrong: %+v", s)
	}

	sw := JobSpec{Kind: KindSweep}
	if err := sw.Normalize(); err != nil {
		t.Fatalf("Normalize sweep: %v", err)
	}
	if len(sw.Nets) < 2 {
		t.Fatalf("sweep nets not defaulted: %v", sw.Nets)
	}

	an := JobSpec{Kind: KindAnalysis}
	if err := an.Normalize(); err != nil {
		t.Fatalf("Normalize analysis: %v", err)
	}
	if an.Observable != "rdf" {
		t.Fatalf("observable = %q, want rdf", an.Observable)
	}
}

func TestSpecNormalizeRejects(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		frag string
	}{
		{"unknown-kind", JobSpec{Kind: "banana"}, "kind must be"},
		{"atoms-low", JobSpec{Kind: KindRun, Atoms: 5}, "atoms must be"},
		{"steps-high", JobSpec{Kind: KindRun, Steps: 10_000}, "steps must be"},
		{"bad-cpus", JobSpec{Kind: KindRun, CPUs: 3, Procs: 6}, "cpus must be"},
		{"procs-odd", JobSpec{Kind: KindRun, CPUs: 2, Procs: 7}, "procs must be"},
		{"bad-net", JobSpec{Kind: KindRun, Net: "carrier-pigeon"}, "unknown net"},
		{"bad-mw", JobSpec{Kind: KindRun, MW: "smoke-signals"}, "mw must be"},
		{"bad-decomp", JobSpec{Kind: KindRun, Decomp: "astral"}, "decomp must be"},
		{"bad-sweep-net", JobSpec{Kind: KindSweep, Nets: []string{"tcp", "nope"}}, "unknown net"},
		{"untileable", JobSpec{Kind: KindRun, Atoms: 99, Procs: 31}, "cannot tile 31 ranks"},
		{"untileable-sweep", JobSpec{Kind: KindSweep, Atoms: 99, Procs: 31, Decomp: "domain"}, "pencil grid"},
		{"bad-observable", JobSpec{Kind: KindAnalysis, Observable: "vibes"}, "observable must be"},
		{"figure-missing", JobSpec{Kind: KindFigure}, "figure id is required"},
		{"figure-diagram", JobSpec{Kind: KindFigure, Figure: "1"}, "minus the diagrams"},
		{"figure-unknown", JobSpec{Kind: KindFigure, Figure: "99"}, "figure must be"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Normalize()
			if err == nil {
				t.Fatalf("Normalize(%+v) accepted", tc.spec)
			}
			var je *JobError
			if !errors.As(err, &je) || je.Kind != KindBadRequest {
				t.Fatalf("error = %v, want KindBadRequest JobError", err)
			}
			if !strings.Contains(je.Msg, tc.frag) {
				t.Fatalf("message %q missing %q", je.Msg, tc.frag)
			}
		})
	}
}

// TestFigureSpecAcceptsTheRegistrysData: a figure job is accepted for
// exactly the registry entries that have data rows to serve.
func TestFigureSpecAcceptsTheRegistrysData(t *testing.T) {
	accepted := 0
	for _, fig := range figures.Registry() {
		s := JobSpec{Kind: KindFigure, Figure: fig.ID}
		if err := s.Normalize(); (err == nil) != fig.HasData() {
			t.Errorf("figure %q: Normalize error %v, has data rows %t", fig.ID, err, fig.HasData())
		} else if err == nil {
			accepted++
		}
	}
	if accepted != 14 {
		t.Errorf("%d figures accepted, want the 14 with data rows", accepted)
	}
}

// TestSpecKeyGolden pins the canonical key renderings: any change here is
// a format break that must come with a SpecKeyVersion bump, or stored
// results from the old scheme could be served for new-scheme requests.
func TestSpecKeyGolden(t *testing.T) {
	cases := []struct {
		spec JobSpec
		want string
	}{
		{JobSpec{Kind: KindRun}, "serve/v4 run atoms=120 steps=4 seed=1 p=4 cpus=1 net=tcp mw=mpi decomp=replicated"},
		{JobSpec{Kind: KindRun, Decomp: "domain"},
			"serve/v4 run atoms=120 steps=4 seed=1 p=4 cpus=1 net=tcp mw=mpi decomp=domain"},
		{JobSpec{Kind: KindAnalysis, Atoms: 48, Steps: 2, Observable: "msd"},
			"serve/v4 analysis atoms=48 steps=2 seed=1 obs=msd"},
		{JobSpec{Kind: KindFigure, Figure: "3", Quick: true, Steps: 2, Seed: 7},
			"serve/v4 figure id=3 quick=true steps=2 seed=7"},
	}
	for _, tc := range cases {
		s := tc.spec
		if err := s.Normalize(); err != nil {
			t.Fatalf("Normalize: %v", err)
		}
		if got := s.Key(); got != tc.want {
			t.Errorf("Key(%+v)\n got  %q\n want %q", tc.spec, got, tc.want)
		}
	}
}

// TestSpecKeyExcludesHostKnobs: tenant, deadline and other host-side
// settings live outside JobSpec entirely, so two tenants asking for the
// same physics share one key — the property that makes cross-tenant
// coalescing and the shared store sound. Differing physics must differ.
func TestSpecKeyDiscriminates(t *testing.T) {
	base := JobSpec{Kind: KindRun, Atoms: 48, Steps: 2}
	if err := base.Normalize(); err != nil {
		t.Fatal(err)
	}
	variants := []func(*JobSpec){
		func(s *JobSpec) { s.Atoms = 72 },
		func(s *JobSpec) { s.Steps = 3 },
		func(s *JobSpec) { s.Seed = 2 },
		func(s *JobSpec) { s.Procs = 8 },
		func(s *JobSpec) { s.Net = "myrinet" },
		func(s *JobSpec) { s.MW = "cmpi" },
		func(s *JobSpec) { s.Decomp = "domain" },
	}
	seen := map[string]bool{base.Key(): true}
	for i, mod := range variants {
		s := base
		mod(&s)
		if err := s.Normalize(); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		k := s.Key()
		if seen[k] {
			t.Errorf("variant %d collides: %q", i, k)
		}
		seen[k] = true
	}
	if id := JobID(base.Key()); len(id) != 64 {
		t.Fatalf("JobID length = %d, want 64 hex chars", len(id))
	}
}

// TestExecRejectsUntileableDecomp: the tiling check runs on the job's PME
// mesh (12³ for the 120-atom default box), known from the atom count at
// admission, and surfaces as the client's fault, not the server's.
func TestExecRejectsUntileableDecomp(t *testing.T) {
	e := NewEnv()
	spec := JobSpec{Kind: KindRun, Procs: 16} // replicated, K1=12 < 16 slabs
	if _, err := e.ComputeReference(spec); err == nil {
		t.Fatal("16 replicated ranks accepted on a 12-slab mesh")
	} else {
		var je *JobError
		if !errors.As(err, &je) || je.Kind != KindBadRequest {
			t.Fatalf("error = %v, want KindBadRequest", err)
		}
		if !strings.Contains(je.Msg, "K1=12") {
			t.Fatalf("error %q does not name the violated mesh constraint", je.Msg)
		}
	}
	// The same rank count tiles as a 4×4 pencil grid under domain.
	if _, err := e.ComputeReference(JobSpec{Kind: KindRun, Procs: 16, Decomp: "domain"}); err != nil {
		t.Fatalf("16 domain ranks rejected: %v", err)
	}
}

func TestErrorKindRetryable(t *testing.T) {
	retryable := map[ErrorKind]bool{
		KindBadRequest: false, KindOverloaded: false, KindCanceled: false,
		KindDeadline: false, KindWorkerCrash: true, KindTransient: true,
		KindInternal: false,
	}
	for kind, want := range retryable {
		if got := kind.Retryable(); got != want {
			t.Errorf("%s.Retryable() = %v, want %v", kind, got, want)
		}
	}
}
