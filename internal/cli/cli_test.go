package cli

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/figures"
	"repro/internal/md"
	"repro/internal/obs"
	"repro/internal/pmd"
)

// exited is what the test exit function panics with, so that a Fail stops
// the code under test the way os.Exit would.
type exited int

// testApp returns an App on a fresh flag set whose diagnostics land in the
// returned buffer and whose exit panics with exited(code).
func testApp(name string) (*App, *bytes.Buffer) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	a := New(name, fs)
	var stderr bytes.Buffer
	a.stderr = &stderr
	a.exit = func(code int) { panic(exited(code)) }
	return a, &stderr
}

// exitCode runs f and returns the code it exited with, or -1 if it returned.
func exitCode(f func()) (code int) {
	code = -1
	defer func() {
		if r := recover(); r != nil {
			code = int(r.(exited))
		}
	}()
	f()
	return code
}

// The shared flags as each command registers them.
func mdrunFlags(a *App) {
	a.CkptRingFlags("dir", "keep", false)
	a.CkptEveryFlag(10, 1, "every")
	a.ObsFlags()
	a.KernelWorkersFlag("kw")
	a.SkinFlags("tune")
	a.DecompFlag("decomp")
	a.ProfileOutFlag("profile")
}

func faultbenchFlags(a *App) {
	a.ClusterFlags(1)
	a.DecompFlag("decomp")
	a.RecoveryFlag()
	a.CkptEveryFlag(1, 0, "every")
	a.CkptRingFlags("dir", "keep", true)
	a.ObsFlags()
	a.ProfileOutFlag("profile")
}

func TestSharedValidation(t *testing.T) {
	// 24³ is the mesh of a small solvated box; the paper mesh is 80×36×48.
	small := md.PMEConfig{K1: 24, K2: 24, K3: 24}
	cases := []struct {
		name     string
		register func(*App)
		args     []string
		tile     int // > 0: also check Tiling(tile, pme)
		pme      md.PMEConfig
		want     string // "" = accepted
	}{
		{name: "defaults", register: mdrunFlags},
		{name: "bad decomp", register: mdrunFlags, args: []string{"-decomp", "slab"},
			want: `pmd: unknown decomposition "slab" (want replicated or domain)`},
		{name: "bad recovery", register: faultbenchFlags, args: []string{"-recovery", "none"},
			want: `pmd: unknown recovery strategy "none" (want global or local)`},
		{name: "local recovery on replicated", register: faultbenchFlags, args: []string{"-recovery", "local"},
			want: "pmd: invalid Recovery: localized recovery repairs spatial domains; it needs Decomp == DecompDomain"},
		{name: "local recovery on domain", register: faultbenchFlags, args: []string{"-recovery", "local", "-decomp", "domain"}},
		{name: "slab limit", register: mdrunFlags, tile: 100, pme: md.PaperPME(),
			want: "pmd: replicated decomposition cannot tile 100 ranks: slab PME assigns whole x-slabs; ranks must not exceed the K1=80 mesh slabs"},
		{name: "slab fits", register: mdrunFlags, tile: 80, pme: md.PaperPME()},
		{name: "pencil p2 limit", register: mdrunFlags, args: []string{"-decomp", "domain"}, tile: 14 * 14, pme: small,
			want: "pmd: domain decomposition cannot tile 196 ranks: pencil grid 14×14 needs p2 ≤ min(K2=24, K1/2+1=13)"},
		{name: "pencil p3 limit", register: mdrunFlags, args: []string{"-decomp", "domain"}, tile: 29, pme: small,
			want: "pmd: domain decomposition cannot tile 29 ranks: pencil grid 1×29 needs p3 ≤ min(K3=24, K2=24)"},
		{name: "pencil fits", register: mdrunFlags, args: []string{"-decomp", "domain"}, tile: 64, pme: small},
		{name: "unknown network", register: faultbenchFlags, args: []string{"-net", "atm"},
			want: `unknown network "atm"`},
		{name: "three CPUs per node", register: faultbenchFlags, args: []string{"-cpus", "3"},
			want: "-cpus must be 1 or 2 (got 3)"},
		{name: "ranks not filling the nodes", register: faultbenchFlags, args: []string{"-p", "5", "-cpus", "2"},
			want: "-p (5) must be a multiple of -cpus (2) spanning at least 1 node(s)"},
		{name: "no ranks", register: faultbenchFlags, args: []string{"-p", "0"},
			want: "-p (0) must be a multiple of -cpus (1) spanning at least 1 node(s)"},
		{name: "dual-CPU nodes", register: faultbenchFlags, args: []string{"-p", "8", "-cpus", "2", "-net", "myrinet"}},
		{name: "negative kernel workers", register: mdrunFlags, args: []string{"-kernel-workers", "-1"},
			want: "-kernel-workers must be >= 0 (got -1)"},
		{name: "negative skin", register: mdrunFlags, args: []string{"-skin", "-0.5"},
			want: "-skin must be >= 0 (got -0.5)"},
		{name: "skin with tune-skin", register: mdrunFlags, args: []string{"-skin", "1.5", "-tune-skin"},
			want: "-skin and -tune-skin are mutually exclusive"},
		{name: "negative tune window", register: mdrunFlags, args: []string{"-tune-window", "-3"},
			want: "-tune-window must be >= 0 (got -3)"},
		{name: "ckpt-every below mdrun's minimum", register: mdrunFlags, args: []string{"-ckpt-every", "0"},
			want: "-ckpt-every must be >= 1 (got 0)"},
		{name: "ckpt-every 0 is faultbench's default", register: faultbenchFlags, args: []string{"-ckpt-every", "0"}},
		{name: "negative ckpt-every", register: faultbenchFlags, args: []string{"-ckpt-every", "-1"},
			want: "-ckpt-every must be >= 0 (got -1)"},
		{name: "negative ckpt-keep", register: mdrunFlags, args: []string{"-ckpt-keep", "-1"},
			want: "-ckpt-keep must be >= 0 (got -1)"},
		{name: "ckpt-keep without ckpt-dir in faultbench", register: faultbenchFlags, args: []string{"-ckpt-keep", "2"},
			want: "-ckpt-keep needs -ckpt-dir"},
		{name: "ckpt-keep with ckpt-dir in faultbench", register: faultbenchFlags, args: []string{"-ckpt-keep", "2", "-ckpt-dir", "ring"}},
		{name: "ckpt-keep without ckpt-dir in mdrun", register: mdrunFlags, args: []string{"-ckpt-keep", "2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, stderr := testApp("tool")
			tc.register(a)
			code := exitCode(func() {
				a.Parse(tc.args)
				if tc.tile > 0 {
					a.Tiling(tc.tile, tc.pme)
				}
			})
			if tc.want == "" {
				if code != -1 {
					t.Fatalf("exited %d: %s", code, stderr)
				}
				return
			}
			if code != 2 {
				t.Errorf("exit code %d, want 2", code)
			}
			if got, want := stderr.String(), "tool: "+tc.want+"\n"; got != want {
				t.Errorf("stderr %q, want %q", got, want)
			}
			var ue *UsageError
			if err := a.Validate(); tc.tile == 0 && !errors.As(err, &ue) {
				t.Errorf("Validate returned %v (%T), want a *UsageError", err, err)
			}
		})
	}
}

func TestExitConvention(t *testing.T) {
	for _, tc := range []struct {
		err  error
		code int
	}{
		{errors.New("run failed"), 1},
		{Usagef("-p must be >= %d", 1), 2},
		{fmt.Errorf("wrapped: %w", Usagef("bad")), 2},
		{&pmd.DecompError{Ranks: 3, Constraint: "c"}, 1}, // a failed run unless Tiling found it up front
	} {
		a, stderr := testApp("tool")
		if code := exitCode(func() { a.Fail(tc.err) }); code != tc.code {
			t.Errorf("Fail(%v) exited %d, want %d", tc.err, code, tc.code)
		}
		if got, want := stderr.String(), "tool: "+tc.err.Error()+"\n"; got != want {
			t.Errorf("Fail(%v) printed %q, want %q", tc.err, got, want)
		}
	}
	// A flag error on a ContinueOnError set is a usage exit too.
	a, _ := testApp("tool")
	if code := exitCode(func() { a.Parse([]string{"-no-such-flag"}) }); code != 2 {
		t.Errorf("unknown flag exited %d, want 2", code)
	}
}

func TestFailDrainsObsOnceBeforeExit(t *testing.T) {
	a, stderr := testApp("tool")
	a.ObsFlags()
	if a.StartObs(obs.ServeOptions{})(); stderr.Len() != 0 {
		t.Errorf("StartObs without -obs-addr announced %q", stderr)
	}
	a.Parse([]string{"-obs-addr", "127.0.0.1:0"})
	a.Reg.Gauge("repro_test_gauge", "a gauge").Set(7)
	deferred := a.StartObs(obs.ServeOptions{})
	var addr string
	if _, err := fmt.Sscanf(stderr.String(), "obs: http://%s", &addr); err != nil {
		t.Fatalf("no address announced in %q: %v", stderr, err)
	}
	url := "http://" + strings.TrimSuffix(addr, "/{metrics,runz,debug/pprof}") + "/metrics"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "repro_test_gauge 7") {
		t.Errorf("/metrics does not expose the app registry:\n%s", body)
	}

	var order []string
	closeServer := a.drain
	a.drain = func() { order = append(order, "drain"); closeServer() }
	a.exit = func(code int) { order = append(order, fmt.Sprint("exit ", code)); panic(exited(code)) }
	exitCode(func() { a.Fail(errors.New("boom")) })
	if want := []string{"drain", "exit 1"}; !reflect.DeepEqual(order, want) {
		t.Errorf("error path ran %v, want %v", order, want)
	}
	if _, err := http.Get(url); err == nil {
		t.Error("obs server still answers after Fail")
	}
	deferred() // main's deferred drain after a Fail that returned: closes nothing twice
}

func TestManifestFillRoundTrip(t *testing.T) {
	a, stderr := testApp("tool")
	a.ObsFlags()
	a.WriteManifest(func(*obs.Manifest) { t.Error("fill called without -obs-manifest") })

	path := filepath.Join(t.TempDir(), "run.json")
	a.Parse([]string{"-obs-manifest", path})
	a.Reg.Gauge("repro_test_gauge", "a gauge").Set(42)
	a.WriteManifest(func(m *obs.Manifest) {
		m.Seeds["system"] = 9
		m.Config["steps"] = 3
		m.Config["decomp"] = pmd.DecompDomain.String()
	})
	if got, want := stderr.String(), "obs: manifest written to "+path+"\n"; got != want {
		t.Errorf("stderr %q, want %q", got, want)
	}
	m, err := obs.LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	// JSON numbers come back as float64.
	if want := map[string]interface{}{"steps": 3.0, "decomp": "domain"}; m.Seeds["system"] != 9 || !reflect.DeepEqual(m.Config, want) {
		t.Errorf("seeds %v config %v, want system=9 and %v", m.Seeds, m.Config, want)
	}
	if len(m.Metrics) != 1 || m.Metrics[0].Name != "repro_test_gauge" || m.Metrics[0].Value != 42 {
		t.Errorf("metrics %+v, want the registry snapshot", m.Metrics)
	}

	a.ObsManifest = filepath.Join(t.TempDir(), "no-such-dir", "run.json")
	stderr.Reset()
	if code := exitCode(func() { a.WriteManifest(func(*obs.Manifest) {}) }); code != 1 || !strings.HasPrefix(stderr.String(), "tool: manifest: ") {
		t.Errorf("unwritable manifest: exit %d, stderr %q", code, stderr)
	}
}

func TestWriteProfile(t *testing.T) {
	a, stderr := testApp("tool")
	a.ProfileOutFlag("profile")
	path := filepath.Join(t.TempDir(), "prof.json")
	a.Parse([]string{"-profile-out", path})
	a.WriteProfile([]byte("{}\n"), nil)
	if got, err := os.ReadFile(path); err != nil || string(got) != "{}\n" {
		t.Errorf("profile file: %q, %v", got, err)
	}
	if code := exitCode(func() { a.WriteProfile(nil, errors.New("encode failed")) }); code != 1 || stderr.String() != "tool: profile: encode failed\n" {
		t.Errorf("encoder error: exit %d, stderr %q", code, stderr)
	}
}

// TestCommands builds the five commands that share the flag set and holds
// them to the parent commit: testdata/*.help is the -h output of the
// binaries built before the command registered its flags through
// internal/cli, so any flag, default or help string that moves shows
// here. It also runs the command lines whose exit code is part of the
// contract.
func TestCommands(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain in PATH")
	}
	bin := t.TempDir()
	names := []string{"mdrun", "faultbench", "charmmbench", "chaos", "tracer"}
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator))
	for _, n := range names {
		build.Args = append(build.Args, "repro/cmd/"+n)
	}
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// run executes a built command under its bare name, as a user's PATH
	// lookup would, and returns its stderr and exit code.
	run := func(name string, args ...string) (string, int) {
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Args[0] = name
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		var ee *exec.ExitError
		if err := cmd.Run(); err != nil && !errors.As(err, &ee) {
			t.Fatalf("%s %v: %v", name, args, err)
		}
		return stderr.String(), cmd.ProcessState.ExitCode()
	}
	for _, n := range names {
		want, err := os.ReadFile(filepath.Join("testdata", n+".help"))
		if err != nil {
			t.Fatal(err)
		}
		if got, code := run(n, "-h"); got != string(want) || code != 0 {
			t.Errorf("%s -h (exit %d) differs from the parent's:\n%s", n, code, got)
		}
	}

	const untileable = "pmd: replicated decomposition cannot tile 100 ranks: slab PME assigns whole x-slabs; ranks must not exceed the K1=16 mesh slabs\n"
	for _, tc := range []struct {
		name, args, want string
	}{
		{"chaos", "-runs 1 -p 100 -steps 2", "chaos: " + untileable},
		{"faultbench", "-spec crash@0.1,rank=1 -p 100 -atoms 300 -steps 2", "faultbench: " + untileable},
		{"chaos", "-runs 1 -recovery local", "chaos: pmd: invalid Recovery: localized recovery repairs spatial domains; it needs Decomp == DecompDomain\n"},
		{"chaos", "-runs 1 -p 2 -cpus 2", "chaos: -p (2) must be a multiple of -cpus (2) spanning at least 2 node(s)\n"},
		{"faultbench", "-spec crash@0.1,rank=1 -net atm", "faultbench: unknown network \"atm\"\n"},
		{"tracer", "-p 3 -cpus 2", "tracer: -p (3) must be a multiple of -cpus (2) spanning at least 1 node(s)\n"},
		{"tracer", "-cpus 3", "tracer: -cpus must be 1 or 2 (got 3)\n"},
		{"mdrun", "-ranks 16 -xyz t.xyz", "mdrun: -xyz is not supported with -ranks > 1\n"},
		{"charmmbench", "-profile-out p.json", "charmmbench: -profile-out requires -figure attribution\n"},
		{"charmmbench", "-figure 3 -quick -workers -3", "charmmbench: -workers must be >= 0, got -3\n"},
		{"charmmbench", "-format csv -figure all", "charmmbench: -format csv needs a single -figure\n"},
		{"charmmbench", "-figure bogus", "charmmbench: unknown figure \"bogus\" (known: [1 2 3 4 5 6 7 8 9 ablation attribution ceiling effects factorial recovery scalelimit], all)\n"},
		{"charmmbench", "-figure 1 -format csv", "charmmbench: figure 1 is a diagram and has no CSV form\n"},
	} {
		if got, code := run(tc.name, strings.Fields(tc.args)...); got != tc.want || code != 2 {
			t.Errorf("%s %s: exit %d, stderr %q; want exit 2, %q", tc.name, tc.args, code, got, tc.want)
		}
	}
}

// TestFigureHelpNamesEveryFigure: charmmbench's -figure help (the golden
// TestCommands holds the binary to) names every id of the registry, the
// digits through its "1..9".
func TestFigureHelpNamesEveryFigure(t *testing.T) {
	help, err := os.ReadFile(filepath.Join("testdata", "charmmbench.help"))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, _ := strings.Cut(string(help), "  -figure string\n")
	line, _, _ := strings.Cut(rest, "\n")
	line = strings.Replace(line, "1..9", "1, 2, 3, 4, 5, 6, 7, 8, 9", 1)
	named := map[string]bool{}
	for _, word := range strings.FieldsFunc(line, func(r rune) bool { return r == ',' || r == ' ' || r == ':' }) {
		named[word] = true
	}
	for _, fig := range figures.Registry() {
		if !named[fig.ID] {
			t.Errorf("figure %q is in the registry but not in the -figure help: %s", fig.ID, strings.TrimSpace(line))
		}
	}
}

// TestEveryMainIsExercised keeps programs nothing runs from piling up:
// every main package under cmd/ and examples/ has a test file of its own
// or is run by a step of the CI workflow.
func TestEveryMainIsExercised(t *testing.T) {
	root := filepath.Join("..", "..")
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	mains := 0
	for _, parent := range []string{"cmd", "examples"} {
		dirs, err := os.ReadDir(filepath.Join(root, parent))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dirs {
			files, _ := filepath.Glob(filepath.Join(root, parent, d.Name(), "*.go"))
			isMain, tested := false, false
			for _, f := range files {
				if strings.HasSuffix(f, "_test.go") {
					tested = true
				} else if src, err := os.ReadFile(f); err == nil && bytes.Contains(src, []byte("\npackage main\n")) {
					isMain = true
				}
			}
			if !isMain {
				continue
			}
			mains++
			rel := "./" + parent + "/" + d.Name()
			if !tested && !bytes.Contains(ci, []byte(rel+" ")) && !bytes.Contains(ci, []byte(rel+"\n")) {
				t.Errorf("%s is a main package with no _test.go file and no mention in ci.yml: test it, run it in CI, or delete it", rel)
			}
		}
	}
	if mains == 0 {
		t.Fatal("found no main package under cmd/ or examples/; the walk is broken")
	}
}
