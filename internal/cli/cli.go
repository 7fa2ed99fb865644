// Package cli is what the command mains share: the one registration of
// every flag more than one command carries, their validation into one
// typed usage error, the obs server and run manifest, and the exit
// convention — usage error 2, run failure 1, the obs server drained first
// on every path. A main registers the shared flags it has, with its own
// help text and default, and keeps the flags and run logic that are its own.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/md"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/pmd"
	"repro/internal/space"
)

// minNodes is the fewest nodes a command's -p and -cpus may span.
const minNodes = 1

// obsDrainTimeout bounds how long exit paths wait for in-flight /metrics
// and /runz scrapes to finish before force-closing the obs server.
const obsDrainTimeout = 2 * time.Second

// UsageError is a rejected command line: the command exits 2 on it, 1 on
// any other error.
type UsageError struct{ Err error }

func (e *UsageError) Error() string { return e.Err.Error() }
func (e *UsageError) Unwrap() error { return e.Err }

// Usagef builds a *UsageError from a format.
func Usagef(format string, args ...interface{}) error {
	return &UsageError{fmt.Errorf(format, args...)}
}

// App is one command's share of the common tooling. The exported fields
// below Reg hold the values of the shared flags the command registered;
// Decomp, Recovery and Net are set by Validate.
type App struct {
	Name string        // prefix of every diagnostic line
	Reg  *obs.Registry // what the obs server exposes and the manifest snapshots

	ObsAddr, ObsManifest, ProfileOut string
	NetName                          string // the -net value; Net is its model
	Net                              netmodel.Params
	Procs, CPUs                      int
	Decomp                           pmd.DecompKind
	Recovery                         pmd.RecoveryKind
	KernelWorkers                    int
	Skin                             float64
	TuneSkin                         bool
	TuneWindow                       int
	CkptDir                          string
	CkptEvery, CkptKeep              int

	fs               *flag.FlagSet
	decomp, recovery string
	cluster          bool // ClusterFlags registered
	ckptEveryMin     int
	keepNeedsDir     bool

	stderr io.Writer
	exit   func(int)
	drain  func() // closes the obs server once; a no-op until StartObs
}

// New returns the App of the named command, registering on fs.
func New(name string, fs *flag.FlagSet) *App {
	return &App{Name: name, Reg: obs.NewRegistry(), fs: fs,
		stderr: os.Stderr, exit: os.Exit, drain: func() {}}
}

// ObsFlags registers -obs-addr and -obs-manifest.
func (a *App) ObsFlags() {
	a.fs.StringVar(&a.ObsAddr, "obs-addr", "", "serve live introspection (/metrics, /runz, /debug/pprof) on this address")
	a.fs.StringVar(&a.ObsManifest, "obs-manifest", "", "write the JSON run manifest (provenance + final metrics) to this file")
}

// ClusterFlags registers -net, -p and -cpus.
func (a *App) ClusterFlags() {
	a.cluster = true
	a.fs.StringVar(&a.NetName, "net", "tcp", "network: tcp, score, myrinet, fast")
	a.fs.IntVar(&a.Procs, "p", 4, "processors")
	a.fs.IntVar(&a.CPUs, "cpus", 1, "CPUs per node (1 or 2)")
}

// ProfileOutFlag registers -profile-out.
func (a *App) ProfileOutFlag(help string) { a.fs.StringVar(&a.ProfileOut, "profile-out", "", help) }

// DecompFlag registers -decomp.
func (a *App) DecompFlag(help string) { a.fs.StringVar(&a.decomp, "decomp", "replicated", help) }

// KernelWorkersFlag registers -kernel-workers, the one host bound of
// every command that runs physics: the kernel pool of the engine that
// evaluates it and, in charmmbench, the cells in flight. Validate resolves
// 0 to one per CPU.
func (a *App) KernelWorkersFlag() {
	a.fs.IntVar(&a.KernelWorkers, "kernel-workers", 0, "host cores to run on (0 = one per CPU, 1 = serial); results are identical for every value")
}

// RecoveryFlag registers -recovery.
func (a *App) RecoveryFlag() {
	a.fs.StringVar(&a.recovery, "recovery", "global", "crash recovery strategy: global (checkpoint rewind) or local (epoch replay of the crashed domain; needs -decomp domain)")
}

// SkinFlags registers -skin, -tune-skin and -tune-window.
func (a *App) SkinFlags(tuneHelp string) {
	a.fs.Float64Var(&a.Skin, "skin", 0, "pin the neighbour-list skin width in Å (0 = config default; exclusive with -tune-skin)")
	a.fs.BoolVar(&a.TuneSkin, "tune-skin", false, tuneHelp)
	a.fs.IntVar(&a.TuneWindow, "tune-window", 0, "timed steps per skin-tuner candidate (0 = default 20)")
}

// CkptEveryFlag registers -ckpt-every with the command's default and the
// smallest value it accepts.
func (a *App) CkptEveryFlag(def, min int, help string) {
	a.ckptEveryMin = min
	a.fs.IntVar(&a.CkptEvery, "ckpt-every", def, help)
}

// CkptRingFlags registers -ckpt-dir and -ckpt-keep; keepNeedsDir makes a
// ring depth without a ring directory a usage error.
func (a *App) CkptRingFlags(dirHelp, keepHelp string, keepNeedsDir bool) {
	a.keepNeedsDir = keepNeedsDir
	a.fs.StringVar(&a.CkptDir, "ckpt-dir", "", dirHelp)
	a.fs.IntVar(&a.CkptKeep, "ckpt-keep", 0, keepHelp)
}

// Parse parses args and validates the shared flags, exiting 2 on a
// rejected command line.
func (a *App) Parse(args []string) {
	if a.fs.Parse(args) != nil {
		a.Exit(2) // a ContinueOnError set; the flag package printed why
	}
	if err := a.Validate(); err != nil {
		a.Fail(err)
	}
}

// Validate checks the shared flags against pmd's own validators and their
// ranges. Flags the command did not register hold zero values, which pass.
func (a *App) Validate() error {
	var err error
	if a.Decomp, err = pmd.ParseDecomp(a.decomp); err != nil {
		return &UsageError{err}
	}
	if a.Recovery, err = pmd.ParseRecovery(a.recovery); err != nil {
		return &UsageError{err}
	}
	if err := pmd.ValidateRecovery(a.Recovery, a.Decomp); err != nil {
		return &UsageError{err}
	}
	if a.cluster {
		var ok bool
		switch a.Net, ok = netmodel.ByName(a.NetName); {
		case !ok:
			return Usagef("unknown network %q", a.NetName)
		case a.CPUs != 1 && a.CPUs != 2:
			return Usagef("-cpus must be 1 or 2 (got %d)", a.CPUs)
		case a.Procs < minNodes*a.CPUs || a.Procs%a.CPUs != 0:
			return Usagef("-p (%d) must be a multiple of -cpus (%d) spanning at least %d node(s)", a.Procs, a.CPUs, minNodes)
		}
	}
	if a.KernelWorkers == 0 && a.fs.Lookup("kernel-workers") != nil {
		a.KernelWorkers = runtime.GOMAXPROCS(0)
	}
	switch {
	case a.KernelWorkers < 0:
		return Usagef("-kernel-workers must be >= 0 (got %d)", a.KernelWorkers)
	case a.Skin < 0:
		return Usagef("-skin must be >= 0 (got %g)", a.Skin)
	case a.Skin > 0 && a.TuneSkin:
		return Usagef("-skin and -tune-skin are mutually exclusive")
	case a.TuneWindow < 0:
		return Usagef("-tune-window must be >= 0 (got %d)", a.TuneWindow)
	case a.CkptEvery < a.ckptEveryMin:
		return Usagef("-ckpt-every must be >= %d (got %d)", a.ckptEveryMin, a.CkptEvery)
	case a.CkptKeep < 0:
		return Usagef("-ckpt-keep must be >= 0 (got %d)", a.CkptKeep)
	case a.keepNeedsDir && a.CkptKeep > 0 && a.CkptDir == "":
		return Usagef("-ckpt-keep needs -ckpt-dir")
	}
	return nil
}

// Tiling exits 2 on a rank count -decomp cannot tile on the run's PME
// mesh, printing pmd's *DecompError.
func (a *App) Tiling(p int, pme md.PMEConfig) {
	if err := pmd.ValidateDecomp(a.Decomp, p, pme); err != nil {
		a.Fail(&UsageError{err})
	}
}

// SkinFits exits 2 when -skin takes the neighbour-list cutoff, cutoff
// plus the skin, past the minimum-image limit of the workload's box.
func (a *App) SkinFits(cutoff float64, box space.Box) {
	if list := cutoff + a.Skin; a.Skin > 0 && list > box.MaxCutoff() {
		a.Usagef("-skin %g puts the list cutoff at %g Å, past the box's minimum-image limit %g Å", a.Skin, list, box.MaxCutoff())
	}
}

// StartObs serves live introspection on -obs-addr and returns the drain
// for main to defer; with the flag unset it starts nothing. The drain
// also runs before Fail and Exit leave the process, so a collector
// mid-scrape still gets a complete exposition of a failed run.
func (a *App) StartObs(opts obs.ServeOptions) (drain func()) {
	if a.ObsAddr == "" {
		return a.drain
	}
	srv, err := obs.NewServer(a.ObsAddr, a.Reg, opts)
	if err != nil {
		a.Fail(err)
	}
	var once sync.Once
	a.drain = func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), obsDrainTimeout)
			defer cancel()
			_ = srv.Close(ctx) // force-closed at the timeout; nothing left to report to
		})
	}
	fmt.Fprintf(a.stderr, "obs: http://%s/{metrics,runz,debug/pprof}\n", srv.Addr())
	return a.drain
}

// WriteManifest writes the run manifest to -obs-manifest: provenance, the
// seeds and config knobs fill sets, and the final registry snapshot. With
// the flag unset fill is not called.
func (a *App) WriteManifest(fill func(m *obs.Manifest)) {
	if a.ObsManifest == "" {
		return
	}
	m := obs.NewManifest()
	fill(m)
	m.Attach(a.Reg)
	if err := m.WriteFile(a.ObsManifest); err != nil {
		a.Fail(fmt.Errorf("manifest: %w", err))
	}
	fmt.Fprintln(a.stderr, "obs: manifest written to", a.ObsManifest)
}

// WriteProfile writes an encoded attribution profile to -profile-out; err
// is the encoder's, so a caller passes both results of one call.
func (a *App) WriteProfile(buf []byte, err error) {
	if err == nil {
		err = os.WriteFile(a.ProfileOut, buf, 0o644)
	}
	if err != nil {
		a.Fail(fmt.Errorf("profile: %w", err))
	}
}

// Usagef reports a usage error of the command's own flags and exits 2.
func (a *App) Usagef(format string, args ...interface{}) { a.Fail(Usagef(format, args...)) }

// Fail prints "name: err" to stderr, drains the obs server and exits: 2
// for a *UsageError, 1 for any other error.
func (a *App) Fail(err error) {
	fmt.Fprintf(a.stderr, "%s: %v\n", a.Name, err)
	var ue *UsageError
	if errors.As(err, &ue) {
		a.Exit(2)
	}
	a.Exit(1)
}

// Exit drains the obs server and exits with code.
func (a *App) Exit(code int) {
	a.drain()
	a.exit(code)
}
