package pmd

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/md"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/topol"
	"repro/internal/trace"
	"repro/internal/vec"
)

// tapeMD is the test MD configuration with a thin list skin: the list is
// rebuilt at step 1, so a three-step run crosses an atom migration.
func tapeMD() md.Config {
	cfg := testMDConfig()
	cfg.FF.ListCutoff = 9.2
	return cfg
}

// tapeRun runs sys under one decomposition, network and middleware at p
// ranks with the given tape.
func tapeRun(t *testing.T, sys *topol.System, decomp DecompKind, p, steps int, net netmodel.Params,
	mw MiddlewareKind, workers int, tape *Tape) *Result {
	t.Helper()
	res, err := Run(clusterCfg(p, 1, net), cluster.PentiumIII1GHz(), Config{
		System:      sys,
		MD:          tapeMD(),
		Steps:       steps,
		Middleware:  mw,
		Decomp:      decomp,
		HostWorkers: workers,
		Tape:        tape,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// held returns the number of states tape holds.
func held(tape *Tape) int {
	tape.mu.Lock()
	defer tape.mu.Unlock()
	return len(tape.states)
}

// TestDomainTapeReplayMatches: a domain run served from a tape is
// indistinguishable from a fresh run — timings, accounting, wall clock,
// energies and final positions — on every network, middleware and
// collective flavour and at one and four host workers, although the tape
// was recorded on one of them, by a domain run or, at p = 16, by a
// replicated one (the slab PME cannot tile p = 64). The trajectory crosses
// a list rebuild, so the view carries a migration and a second ownership
// epoch. CMPI runs at p = 16 only: its ring collectives make one 64-rank
// run cost more than the rest of the test together.
func TestDomainTapeReplayMatches(t *testing.T) {
	sys := testSystem(100, 24, 1)
	const steps = 3
	flavours := []MiddlewareKind{MiddlewareMPI, MiddlewareCMPI, MiddlewareModern}
	for _, p := range []int{16, 64} {
		recorders := []DecompKind{DecompDomain, DecompReplicated}
		if p == 64 {
			recorders = recorders[:1]
		}
		tapes := make([]*Tape, len(recorders))
		for i, decomp := range recorders {
			tapes[i] = NewTape()
			tapeRun(t, sys, decomp, p, steps, netmodel.TCPGigE(), MiddlewareMPI, 1, tapes[i])
			if !tapes[i].Complete() || held(tapes[i]) != steps+1 {
				t.Fatalf("p=%d %v: recording left complete=%v with %d states", p, decomp, tapes[i].Complete(), held(tapes[i]))
			}
		}
		for _, net := range netmodel.All() {
			for _, mw := range flavours {
				if p == 64 && mw == MiddlewareCMPI {
					continue
				}
				fresh := tapeRun(t, sys, DecompDomain, p, steps, net, mw, 1, nil)
				for i, tape := range tapes {
					for _, workers := range []int{1, 4} {
						got := tapeRun(t, sys, DecompDomain, p, steps, net, mw, workers, tape)
						mustEqualResults(t, fmt.Sprintf("p=%d %v tape %s %v workers=%d", p, recorders[i], net.Name, mw, workers), fresh, got)
					}
				}
			}
		}
		for i, tape := range tapes {
			if epochs := tape.doms[p].epochs; len(epochs) < 2 || epochs[1].migration == nil {
				t.Fatalf("p=%d %v tape: the view holds %d epochs and no migration", p, recorders[i], len(epochs))
			}
		}
	}
}

// TestTapeServesBothDecompositions: a tape recorded under one
// decomposition serves runs of the other at the same rank and step count,
// in both directions, at p = 4 and 16: each replay equals a fresh run, the
// trajectory crosses a migration, and the tape stays complete. The
// replays, one per network, run at once, so the first domain replay of a
// replicated tape fills its view while the others read it.
func TestTapeServesBothDecompositions(t *testing.T) {
	sys := testSystem(100, 24, 1)
	nets := netmodel.All()
	for _, p := range []int{4, 16} {
		for _, tc := range []struct{ recorded, run DecompKind }{
			{DecompDomain, DecompReplicated},
			{DecompReplicated, DecompDomain},
		} {
			tape := NewTape()
			tapeRun(t, sys, tc.recorded, p, 3, netmodel.TCPGigE(), MiddlewareMPI, 1, tape)
			got := make([]*Result, len(nets))
			errs := make([]error, len(nets))
			var wg sync.WaitGroup
			for i, net := range nets {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = Run(clusterCfg(p, 1, net), cluster.PentiumIII1GHz(),
						Config{System: sys, MD: tapeMD(), Steps: 3, Decomp: tc.run, Tape: tape})
				}()
			}
			wg.Wait()
			for i, net := range nets {
				label := fmt.Sprintf("p=%d %v tape, %v run on %s", p, tc.recorded, tc.run, net.Name)
				if errs[i] != nil {
					t.Fatalf("%s: %v", label, errs[i])
				}
				mustEqualResults(t, label, tapeRun(t, sys, tc.run, p, 3, net, MiddlewareMPI, 1, nil), got[i])
			}
			if !tape.Complete() || !tape.states[1].rebuilt {
				t.Fatalf("p=%d %v tape: complete=%v, rebuilt at step 1=%v", p, tc.recorded, tape.Complete(), tape.states[1].rebuilt)
			}
		}
	}
}

// TestResultSharesTheTapeState: a run's final positions are the tape's
// last state, not a copy of it — two runs over one tape, at two rank
// counts and under both decompositions, return FinalPos backed by that
// state's array, so a study of many runs holds one copy.
func TestResultSharesTheTapeState(t *testing.T) {
	sys := testSystem(100, 24, 1)
	const steps = 3
	tape := NewTape()
	a := tapeRun(t, sys, DecompReplicated, 2, steps, netmodel.TCPGigE(), MiddlewareMPI, 1, tape)
	b := tapeRun(t, sys, DecompDomain, 4, steps, netmodel.MyrinetGM(), MiddlewareMPI, 1, tape)
	last := tape.states[steps-1].pos
	for _, r := range []*Result{a, b} {
		if len(r.FinalPos) != len(last) || &r.FinalPos[0] != &last[0] {
			t.Fatalf("p=%d: FinalPos is not the tape's step %d state", r.P, steps-1)
		}
	}
}

// TestDomainTapeShapeMismatchIgnored: a domain run over a tape recorded at
// another rank count is served the recorded trajectory, as a replicated
// one is: it equals a run given no tape and evaluates nothing.
func TestDomainTapeShapeMismatchIgnored(t *testing.T) {
	sys := testSystem(100, 24, 1)
	tcp := netmodel.TCPGigE()
	tape := NewTape()
	tapeRun(t, sys, DecompDomain, 4, 3, tcp, MiddlewareMPI, 1, tape)
	want := tapeRun(t, sys, DecompDomain, 2, 3, tcp, MiddlewareMPI, 1, nil)
	got := tapeRun(t, sys, DecompDomain, 2, 3, tcp, MiddlewareMPI, 1, tape)
	mustEqualResults(t, "p=2", want, got)
	if n := held(tape); n != 4 || tape.built != 1 {
		t.Fatalf("the tape holds %d states from %d engines, want 4 from 1", n, tape.built)
	}
}

// TestDomainTapeExtendedByLongerRun: a 5-step run over a 3-step tape is
// served the tape's steps, evaluates the next two into it and equals a
// 5-step run given no tape; a 2-step run over the tape equals its run
// given none.
// Bytes counts every kept state and epoch once: it grows with the
// extension and not with the replay.
func TestDomainTapeExtendedByLongerRun(t *testing.T) {
	sys := testSystem(100, 24, 1)
	tcp := netmodel.TCPGigE()
	tape := NewTape()
	if tape.Bytes() != 0 {
		t.Fatalf("an empty tape holds %d bytes", tape.Bytes())
	}
	tapeRun(t, sys, DecompDomain, 4, 3, tcp, MiddlewareMPI, 1, tape)
	recorded := tape.Bytes()
	for _, steps := range []int{5, 2} {
		want := tapeRun(t, sys, DecompDomain, 4, steps, tcp, MiddlewareMPI, 1, nil)
		got := tapeRun(t, sys, DecompDomain, 4, steps, tcp, MiddlewareMPI, 1, tape)
		mustEqualResults(t, fmt.Sprintf("steps=%d", steps), want, got)
	}
	if n := held(tape); n != 6 {
		t.Fatalf("the tape holds %d states after a 5-step run, want 6", n)
	}
	if b, recount := tape.Bytes(), tapeBytes(tape); recorded <= 0 || b <= recorded || b != recount {
		t.Fatalf("Bytes: %d after 3 steps, %d after 5 and a replay; the kept snapshots and epochs hold %d", recorded, b, recount)
	}
}

// TestTapeSharedByConcurrentRuns: runs at one rank count started at once
// over one fresh tape — replicated and domain, TCP and Myrinet, one and
// four host workers — each equal their run given no tape, and the tape ends
// with one state per evaluation: whichever run reaches a step first
// evaluates it for all.
func TestTapeSharedByConcurrentRuns(t *testing.T) {
	sys := testSystem(100, 24, 1)
	const p, steps = 4, 3
	type run struct {
		decomp  DecompKind
		net     netmodel.Params
		workers int
	}
	var runs []run
	for _, decomp := range []DecompKind{DecompReplicated, DecompDomain} {
		for _, net := range []netmodel.Params{netmodel.TCPGigE(), netmodel.MyrinetGM()} {
			for _, workers := range []int{1, 4} {
				runs = append(runs, run{decomp, net, workers})
			}
		}
	}
	tape := NewTape()
	got := make([]*Result, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = Run(clusterCfg(p, 1, r.net), cluster.PentiumIII1GHz(), Config{
				System: sys, MD: tapeMD(), Steps: steps, Decomp: r.decomp, HostWorkers: r.workers, Tape: tape,
			})
		}()
	}
	wg.Wait()
	for i, r := range runs {
		label := fmt.Sprintf("%v on %s, workers=%d", r.decomp, r.net.Name, r.workers)
		if errs[i] != nil {
			t.Fatalf("%s: %v", label, errs[i])
		}
		mustEqualResults(t, label, tapeRun(t, sys, r.decomp, p, steps, r.net, MiddlewareMPI, r.workers, nil), got[i])
	}
	if n := held(tape); !tape.Complete() || n != steps+1 {
		t.Fatalf("complete=%v with %d states, want %d", tape.Complete(), n, steps+1)
	}
}

// TestTapePositionsSharedWithRuns: Positions reads the one trajectory —
// md.Engine's, ComputeForces then k Steps for frame k — whether it reads a
// private tape or one that runs share. A reader of more steps started at
// once with a run over a fresh tape extends the run's states, and the run
// equals its run given no tape.
func TestTapePositionsSharedWithRuns(t *testing.T) {
	sys := testSystem(100, 24, 1)
	const steps = 4
	seq := md.NewEngine(sys, tapeMD())
	seq.ComputeForces(nil, nil)
	want := [][]vec.V{slices.Clone(seq.Pos)}
	for range steps {
		seq.Step(nil, nil)
		want = append(want, slices.Clone(seq.Pos))
	}
	cfg := Config{System: sys, MD: tapeMD(), HostWorkers: 4}
	private, err := (*Tape)(nil).Positions(cfg, steps)
	if err != nil || !reflect.DeepEqual(private, want) {
		t.Fatalf("Positions over a private tape (err %v) differ from md.Engine's frames", err)
	}

	tape := NewTape()
	var got [][]vec.V
	var run *Result
	var runErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		got, err = tape.Positions(cfg, steps)
	}()
	go func() {
		defer wg.Done()
		runCfg := cfg
		runCfg.Steps, runCfg.Decomp, runCfg.Tape = steps-1, DecompDomain, tape
		run, runErr = Run(clusterCfg(4, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), runCfg)
	}()
	wg.Wait()
	if err != nil || runErr != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Positions over a shared tape (err %v, the run's %v) differ from md.Engine's frames", err, runErr)
	}
	mustEqualResults(t, "run beside a reader", tapeRun(t, sys, DecompDomain, 4, steps-1, netmodel.TCPGigE(), MiddlewareMPI, 1, nil), run)
	if n := held(tape); n != steps+1 {
		t.Fatalf("the tape holds %d states, want %d", n, steps+1)
	}
}

// TestTapeRunAheadStopsWithItsRun: a taped run that a crash fault ends
// returns with no evaluation in flight — the states on the tape stay put
// after it returns — and leaves only fully evaluated states behind, -1 up
// to some step short of the run's last, which a later run over the tape
// is served bit for bit. Under -race, a state still being written after
// the run returned is a reported race.
func TestTapeRunAheadStopsWithItsRun(t *testing.T) {
	sys := testSystem(100, 24, 1)
	const p, steps = 4, 12
	cl, cost := clusterCfg(p, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz()
	cfg := Config{System: sys, MD: tapeMD(), Steps: steps, Middleware: MiddlewareMPI}
	healthy, err := Run(cl, cost, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(crashSpec(t, 0.25*healthy.Wall, 1), fault.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tape := NewTape()
	crashed := cfg
	crashed.Faults, crashed.Watchdog, crashed.Tape = inj, mpi.DefaultWatchdog(), tape
	if _, err := Run(cl, cost, crashed); !errors.Is(err, mpi.ErrCrashed) {
		t.Fatalf("want ErrCrashed, got %v", err)
	}
	if tape.Complete() {
		t.Fatal("a crashed run completed its tape")
	}
	evaluated := func() int {
		tape.mu.Lock()
		defer tape.mu.Unlock()
		for s := -1; s < len(tape.states)-1; s++ {
			st := tape.states[s]
			if st == nil || st.prev != nil || len(st.frc) != sys.N() {
				t.Fatalf("state %d of %d is not fully evaluated", s, len(tape.states))
			}
		}
		return len(tape.states)
	}
	n := evaluated()
	time.Sleep(50 * time.Millisecond)
	if later := evaluated(); n < 2 || later != n || n > steps {
		t.Fatalf("the tape holds %d states as the run returns and %d later; want the same count in [2, %d]", n, later, steps)
	}
	cfg.Tape = tape
	got, err := Run(cl, cost, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "after the crash", healthy, got)
	if n := held(tape); !tape.Complete() || n != steps+1 {
		t.Fatalf("complete=%v with %d states, want %d", tape.Complete(), n, steps+1)
	}
}

// callLog is an mpi observer that keeps the collective calls rank 0
// makes, and closes past when the first all-reduce is among them.
type callLog struct {
	mu    sync.Mutex
	calls []trace.Call
	past  chan struct{}
}

func (l *callLog) Interval(trace.Event) {}

func (l *callLog) Collective(c trace.Call) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls = append(l.calls, c)
	if c.Kind == "allreduce" && l.past != nil {
		close(l.past)
		l.past = nil
	}
}

func (l *callLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.calls)
}

// TestRanksWaitOnlyForTheList: with a tape's step −1 held between its
// list and its forces, the ranks of a domain run get past the step's first
// force-return all-to-all, and those of a replicated run past their
// classic segment, which they charge from the list's length: rank 0
// reaches the first all-reduce under either decomposition. Every result
// equals a run's given no tape bit for bit.
func TestRanksWaitOnlyForTheList(t *testing.T) {
	sys := testSystem(100, 24, 1)
	const p, steps = 8, 3
	defer func() { onListed = nil }()
	for _, decomp := range []DecompKind{DecompDomain, DecompReplicated} {
		want := tapeRun(t, sys, decomp, p, steps, netmodel.TCPGigE(), MiddlewareMPI, 2, nil)

		log := &callLog{past: make(chan struct{})}
		past := log.past
		calls := make(chan int, 1) // rank 0's calls as the forces are released, -1 if it never got past
		onListed = func(_ *Tape, step int) {
			if step != -1 {
				return
			}
			select {
			case <-past:
				calls <- log.count()
			case <-time.After(30 * time.Second): // the ranks get past at once; only a hang takes this long
				calls <- -1
			}
		}
		got, err := Run(clusterCfg(p, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), Config{
			System: sys, MD: tapeMD(), Steps: steps, Middleware: MiddlewareMPI,
			Decomp: decomp, HostWorkers: 2, Tape: NewTape(), Observer: log,
		})
		onListed = nil
		if err != nil {
			t.Fatal(err)
		}
		if n := <-calls; n < 1 {
			t.Fatalf("%v: rank 0 never reached the all-reduce while step -1's forces were held", decomp)
		}
		mustEqualResults(t, fmt.Sprintf("%v over a tape", decomp), want, got)
	}
}

// TestPrivateTapeKeepsAWindow: a run given no tape opens a private one
// that keeps a two-step window, and its run-ahead evaluates a step only
// once a rank has asked for the one before, so the window always holds
// what the ranks read. The ranks are held back at every step boundary, so
// an evaluator that ran ahead unbounded would let go of states they have
// yet to read, and they would wait for them forever. Over 40 steps of a
// replicated and of a domain run, the evaluator never gets more than one
// step past the ranks and never holds more than two states, the domain
// view never more than two epochs, and the energies and final positions
// equal a shared-tape run's bit for bit.
func TestPrivateTapeKeepsAWindow(t *testing.T) {
	sys := testSystem(100, 24, 1)
	const p, steps, window = 4, 40, 2
	defer func() { onListed = nil }()
	for _, decomp := range []DecompKind{DecompReplicated, DecompDomain} {
		want := tapeRun(t, sys, decomp, p, steps, netmodel.TCPGigE(), MiddlewareMPI, 1, NewTape())

		var mu sync.Mutex
		var private *Tape
		lead, snapshots, epochs, generations := 0, 0, 0, 0 // the most seen at once, and the list generations
		sample := func(tp *Tape) {
			mu.Lock()
			defer mu.Unlock()
			if tp == nil {
				return
			}
			private = tp
			tp.mu.Lock()
			snapshots = max(snapshots, len(tp.states))
			v := tp.doms[p]
			tp.mu.Unlock()
			if v == nil {
				return
			}
			v.mu.Lock()
			held := 0
			for _, ep := range v.epochs {
				if ep != nil {
					held++
				}
			}
			epochs, generations = max(epochs, held), len(v.epochs)
			v.mu.Unlock()
		}
		onListed = func(tp *Tape, step int) {
			tp.mu.Lock()
			past := step - (tp.ahead - 1) // steps past the latest a rank asked for
			tp.mu.Unlock()
			mu.Lock()
			lead = max(lead, past)
			mu.Unlock()
			sample(tp)
		}
		var res *ResilientResult
		var err error
		done := make(chan struct{})
		go func() {
			defer close(done)
			res, err = RunResilient(clusterCfg(p, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), ResilientConfig{
				Config: Config{System: sys, MD: tapeMD(), Steps: steps, Middleware: MiddlewareMPI, Decomp: decomp},
				OnStep: func(int, StepTiming, md.EnergyReport) bool {
					time.Sleep(2 * time.Millisecond)
					mu.Lock()
					tp := private
					mu.Unlock()
					sample(tp)
					return false
				},
			})
		}()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatalf("%v: the run hangs: a rank waits for a state the run-ahead let go of", decomp)
		}
		onListed = nil
		if err != nil {
			t.Fatalf("%v: %v", decomp, err)
		}
		if lead > 1 || snapshots > window || epochs > window {
			t.Errorf("%v: the run-ahead got %d steps past the ranks and the private tape held %d states and %d epochs at once, want at most 1 and %d",
				decomp, lead, snapshots, epochs, window)
		}
		if decomp == DecompDomain && generations <= window {
			t.Errorf("domain: %d list generations in %d steps leave the epoch window untested", generations, steps)
		}
		if !reflect.DeepEqual(res.Energies, want.Energies) || !reflect.DeepEqual(res.Final.FinalPos, want.FinalPos) {
			t.Errorf("%v: the private tape's energies or final positions differ from a shared tape's", decomp)
		}
	}
}

// tapeBytes recounts what tape holds: every kept state, and per rank
// count the domain view's geometry and epochs.
func tapeBytes(tape *Tape) int64 {
	b := statesBytes(tape)
	for p, v := range tape.doms {
		if v.geo != nil {
			b += 4 * sparseBytes(p)
		}
		for _, ep := range v.epochs {
			b += ep.bytes()
		}
	}
	return b
}

// statesBytes recounts what tape's kept states hold.
func statesBytes(tape *Tape) (b int64) {
	for _, st := range tape.states {
		b += st.bytes()
	}
	return b
}

// TestTapeSharesTheSeed: runs at p = 1, 2, 8 and 32, started at once over
// one workload tape at two host workers, are served one trajectory, from
// its initial state on, built by one engine: every state equals the state
// of a run over a tape of its own bit for bit — positions, velocities,
// forces, energies, the pair list and its generation, the list search's
// distance evaluations included. The workload tape's Bytes counts the
// trajectory once: it is the own tapes' sum less the trajectory's bytes
// for every rank count but one.
func TestTapeSharesTheSeed(t *testing.T) {
	sys := testSystem(100, 24, 1)
	const steps = 3
	procs := []int{1, 2, 8, 32}
	run := func(p int, tape *Tape) error {
		_, err := Run(clusterCfg(p, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(),
			Config{System: sys, MD: tapeMD(), Steps: steps, Decomp: DecompDomain, HostWorkers: 2, Tape: tape})
		return err
	}
	shared := NewTape()
	errs := make([]error, len(procs))
	var wg sync.WaitGroup
	for i, p := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = run(p, shared)
		}()
	}
	wg.Wait()
	if n := held(shared); n != steps+1 || shared.built != 1 || !shared.states[-1].rebuilt || !shared.states[1].rebuilt {
		t.Fatalf("%d states from %d engines; want %d from 1, a list built at step -1 and rebuilt at step 1", n, shared.built, steps+1)
	}
	if shared.states[-1].distEvals <= 0 {
		t.Fatalf("the initial list counts %d distance evaluations", shared.states[-1].distEvals)
	}
	var ownBytes, trajectory int64
	for i, p := range procs {
		if errs[i] != nil {
			t.Fatalf("p=%d: %v", p, errs[i])
		}
		own := NewTape()
		if err := run(p, own); err != nil {
			t.Fatalf("p=%d over its own tape: %v", p, err)
		}
		ownBytes, trajectory = ownBytes+own.Bytes(), statesBytes(own)
		for s := -1; s < steps; s++ {
			g, w := shared.states[s], own.states[s]
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"positions", g.pos, w.pos}, {"velocities", g.vel, w.vel}, {"forces", g.frc, w.frc}, {"energies", g.rep, w.rep},
				{"pairs", g.pairs, w.pairs}, {"list generation", []any{g.listGen, g.rebuilt, g.distEvals}, []any{w.listGen, w.rebuilt, w.distEvals}},
			} {
				if gs, ws := fmt.Sprintf("%v", f.got), fmt.Sprintf("%v", f.want); gs != ws {
					t.Fatalf("p=%d step %d: %s differ from a run over its own tape", p, s, f.name)
				}
			}
		}
	}
	if b, want := shared.Bytes(), ownBytes-int64(len(procs)-1)*trajectory; b != want || b != tapeBytes(shared) {
		t.Fatalf("the workload tape holds %d bytes, its recount %d; %d own tapes hold %d, less %d trajectories %d",
			b, tapeBytes(shared), len(procs), ownBytes, len(procs)-1, want)
	}
}

// TestTapeScratchPerEvaluationInFlight: a sweep of p = 1 … 32 at two host
// workers, one rank count after another over one tape while a 4-rank run
// over it is in flight, is served by the one engine the 4-rank run's
// evaluation built — the engine is an evaluation's working memory, and at
// most one evaluation is ever in flight — and the engine goes when the
// last run does.
func TestTapeScratchPerEvaluationInFlight(t *testing.T) {
	sys := testSystem(100, 24, 1)
	tape := NewTape()
	cfg := Config{System: sys, MD: tapeMD(), Steps: 3, Decomp: DecompDomain, HostWorkers: 2, Tape: tape}
	var sweepErr error
	rcfg := ResilientConfig{Config: cfg, OnStep: func(step int, _ StepTiming, _ md.EnergyReport) bool {
		if step == 0 {
			for _, p := range []int{1, 2, 8, 16, 32} {
				if _, err := Run(clusterCfg(p, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), cfg); err != nil {
					sweepErr = fmt.Errorf("p=%d: %w", p, err)
					return false
				}
			}
		}
		return false
	}}
	if _, err := RunResilient(clusterCfg(4, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), rcfg); err != nil || sweepErr != nil {
		t.Fatalf("the 4-rank run: %v; the sweep: %v", err, sweepErr)
	}
	if len(tape.doms) != 6 || tape.built != 1 || tape.eng != nil {
		t.Fatalf("%d rank counts built %d engines, engine left %v; want 6 over 1, none left",
			len(tape.doms), tape.built, tape.eng != nil)
	}
}
