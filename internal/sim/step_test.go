package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// ---------------------------------------------------------------------------
// Schedule equivalence: a body behaves identically as a goroutine process,
// as a callback process and as one call a goroutine process awaits.

// Use acquires the resource, advances d seconds, and releases it: the
// blocking reference side of the 'r' op in TestScheduleEquivalence, which
// the step form (AcquireStep, WakeIn, Release) must match pop for pop.
func (r *Resource) Use(p *Proc, d float64) {
	r.Acquire(p)
	p.Advance(d)
	r.Release()
}

// LiveProcs returns the number of spawned processes that have not finished.
func (e *Env) LiveProcs() int { return e.alive }

type progOp struct {
	kind   byte    // 'a'dvance, 'p'ark, 'u'npark, 'r'esource use, 't'imed park, 's'pawn
	d      float64 // duration / timeout
	target int     // unpark: program index; resource use: resource index
	child  *prog   // spawn
}

type prog struct {
	idx int
	ops []progOp
}

func (pr *prog) name() string { return fmt.Sprintf("prog%d", pr.idx) }

// genProgs draws a random forest of programs. Durations come from a small
// set with repeats and zeros, so same-instant wakeups — where only the
// sequence numbers order the pops — are the rule.
func genProgs(rnd *rand.Rand) (tops []*prog, total int) {
	durations := []float64{0, 0, 0.5, 1, 1, 1.5, 2.5}
	var gen func(depth int) *prog
	gen = func(depth int) *prog {
		pr := &prog{idx: total}
		total++
		for n := 1 + rnd.Intn(12); n > 0; n-- {
			op := progOp{d: durations[rnd.Intn(len(durations))]}
			switch k := rnd.Intn(20); {
			case k < 7:
				op.kind = 'a'
			case k < 8:
				op.kind = 'p'
			case k < 12:
				op.kind = 'u'
				op.target = rnd.Intn(total + 2) // may name a program not spawned yet, or never
			case k < 15:
				op.kind = 'r'
				op.target = rnd.Intn(2)
			case k < 18 || depth == 2:
				op.kind = 't'
				op.d += 0.25 // timeouts must be positive
			default:
				op.kind = 's'
				op.child = gen(depth + 1)
			}
			pr.ops = append(pr.ops, op)
		}
		return pr
	}
	for n := 2 + rnd.Intn(5); n > 0; n-- {
		tops = append(tops, gen(0))
	}
	return tops, total
}

// progForm is how a program runs: blocking code on a goroutine process, a
// callback process, or a goroutine process awaiting the whole program.
type progForm int

const (
	asGoroutine progForm = iota
	asCallback
	asAwait
)

// progWorld is one execution of a program forest.
type progWorld struct {
	env   *Env
	res   []*Resource
	procs []*Proc
	plain []bool                  // program is in an op-level park (not a resource queue)
	form  func(pr *prog) progForm // which flavour a program runs as
	log   []string                // pop trace and observable results
}

func (w *progWorld) spawn(pr *prog) {
	switch w.form(pr) {
	case asCallback:
		w.procs[pr.idx] = w.env.SpawnStep(&progStepper{w: w, pr: pr})
	case asAwait:
		w.procs[pr.idx] = w.env.Spawn(pr.name(), func(p *Proc) { p.Await(&progStepper{w: w, pr: pr}) })
	default:
		w.procs[pr.idx] = w.env.Spawn(pr.name(), func(p *Proc) { w.runBlocking(p, pr) })
	}
}

func (w *progWorld) unpark(target int) {
	if target < len(w.procs) && w.plain[target] && w.procs[target].Parked() {
		w.env.Unpark(w.procs[target])
	}
}

func (w *progWorld) note(pr *prog, what string) {
	w.log = append(w.log, fmt.Sprintf("%s %s @%v", pr.name(), what, w.env.Now()))
}

// runBlocking interprets pr with the goroutine-style primitives.
func (w *progWorld) runBlocking(p *Proc, pr *prog) {
	for _, op := range pr.ops {
		switch op.kind {
		case 'a':
			p.Advance(op.d)
		case 'p':
			w.plain[pr.idx] = true
			p.Park()
			w.plain[pr.idx] = false
			w.note(pr, "unparked")
		case 'u':
			w.unpark(op.target)
		case 'r':
			w.res[op.target].Use(p, op.d)
		case 't':
			w.plain[pr.idx] = true
			ok := p.ParkTimeout(op.d)
			w.plain[pr.idx] = false
			w.note(pr, fmt.Sprintf("timed park woken=%v", ok))
		case 's':
			w.spawn(op.child)
		}
	}
	w.note(pr, "end")
}

// progStepper interprets the same program with the step-style primitives.
type progStepper struct {
	w     *progWorld
	pr    *prog
	pc    int
	phase int
}

func (s *progStepper) Name() string { return s.pr.name() }

func (s *progStepper) Step(p *Proc) bool {
	w, pr := s.w, s.pr
	for ; s.pc < len(pr.ops); s.pc++ {
		op := &pr.ops[s.pc]
		switch op.kind {
		case 'a':
			if s.phase == 0 {
				s.phase = 1
				p.WakeIn(op.d)
				return false
			}
		case 'p':
			if s.phase == 0 {
				s.phase = 1
				w.plain[pr.idx] = true
				p.ParkStep()
				return false
			}
			w.plain[pr.idx] = false
			w.note(pr, "unparked")
		case 'u':
			w.unpark(op.target)
		case 'r':
			r := w.res[op.target]
			if s.phase == 0 {
				s.phase = 1
				if !r.AcquireStep(p) {
					return false
				}
			}
			if s.phase == 1 {
				s.phase = 2
				p.WakeIn(op.d)
				return false
			}
			r.Release()
		case 't':
			if s.phase == 0 {
				s.phase = 1
				w.plain[pr.idx] = true
				p.ParkTimeoutStep(op.d)
				return false
			}
			w.plain[pr.idx] = false
			w.note(pr, fmt.Sprintf("timed park woken=%v", !p.TimedOut()))
		case 's':
			w.spawn(op.child)
		}
		s.phase = 0
	}
	w.note(pr, "end")
	return true
}

func runProgs(tops []*prog, total int, form func(*prog) progForm) (string, string) {
	env := NewEnv()
	w := &progWorld{
		env:   env,
		res:   []*Resource{NewResource(env, "r1", 1), NewResource(env, "r2", 2)},
		procs: make([]*Proc, total),
		plain: make([]bool, total),
		form:  form,
	}
	env.onPop = func(now float64, seq int64, id int) {
		w.log = append(w.log, fmt.Sprintf("pop t=%v seq=%d id=%d", now, seq, id))
	}
	for _, pr := range tops {
		w.spawn(pr)
	}
	errText := "<nil>"
	if err := env.Run(); err != nil {
		errText = err.Error()
	}
	return strings.Join(w.log, "\n"), errText
}

func TestScheduleEquivalence(t *testing.T) {
	deadlocks := 0
	for seed := int64(1); seed <= 300; seed++ {
		tops, total := genProgs(rand.New(rand.NewSource(seed)))
		wantLog, wantErr := runProgs(tops, total, func(*prog) progForm { return asGoroutine })
		if wantErr != "<nil>" {
			deadlocks++
		}
		mix := rand.New(rand.NewSource(seed))
		flavours := map[string]func(*prog) progForm{
			"callback": func(*prog) progForm { return asCallback },
			"await":    func(*prog) progForm { return asAwait },
			"mixed":    func(*prog) progForm { return progForm(mix.Intn(3)) },
		}
		for name, form := range flavours {
			gotLog, gotErr := runProgs(tops, total, form)
			if gotErr != wantErr {
				t.Fatalf("seed %d, %s processes: outcome %q, goroutine processes gave %q", seed, name, gotErr, wantErr)
			}
			if gotLog != wantLog {
				t.Fatalf("seed %d, %s processes: trace differs from goroutine processes\n%s", seed, name, firstDiff(wantLog, gotLog))
			}
		}
	}
	// The generator must keep producing both outcomes, or half the
	// property (identical deadlock text) silently stops being tested.
	if deadlocks < 30 || deadlocks > 270 {
		t.Fatalf("%d of 300 programs deadlocked; the generator lost its balance", deadlocks)
	}
}

func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := range w {
		if i >= len(g) || w[i] != g[i] {
			gl := "<end of trace>"
			if i < len(g) {
				gl = g[i]
			}
			return fmt.Sprintf("line %d:\n want %s\n got  %s", i, w[i], gl)
		}
	}
	return fmt.Sprintf("got %d extra lines, first: %s", len(g)-len(w), g[len(w)])
}

// ---------------------------------------------------------------------------
// Callback-process contract.

type idleStepper struct{}

func (idleStepper) Step(*Proc) bool { return false }
func (idleStepper) Name() string    { return "idle" }

func TestStepWithoutWakeupPanics(t *testing.T) {
	env := NewEnv()
	env.SpawnStep(idleStepper{})
	defer func() {
		if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), "idle") {
			t.Fatalf("recovered %v, want a panic naming the process", v)
		}
	}()
	env.Run()
}

// timedParker parks once under a timeout and records how the park ended.
type timedParker struct {
	timeout float64
	parked  bool
	woke    string
}

func (s *timedParker) Step(p *Proc) bool {
	if !s.parked {
		s.parked = true
		p.ParkTimeoutStep(s.timeout)
		return false
	}
	s.woke = fmt.Sprintf("timedOut=%v @%v", p.TimedOut(), p.Now())
	return true
}
func (s *timedParker) Name() string { return "timed-parker" }

// TestStartStepKeepsParkGeneration reuses one process: its first park is
// ended early, so its timer goes stale, and the process is restarted and
// parks again before that timer fires. The stale timer must not end the
// second park — which it would if StartStep reset the park generation.
func TestStartStepKeepsParkGeneration(t *testing.T) {
	env := NewEnv()
	var p Proc
	first, second := &timedParker{timeout: 5}, &timedParker{timeout: 10}
	env.StartStep(&p, first)
	env.Spawn("driver", func(d *Proc) {
		d.Advance(1)
		env.Unpark(&p) // the first timer, due at t=5, goes stale
		d.Advance(1)
		if !p.Done() {
			t.Error("first use not finished at t=2")
			return
		}
		env.StartStep(&p, second) // parks until t=12 unless unparked
		d.Advance(5)
		if p.Parked() {
			env.Unpark(&p)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if first.woke != "timedOut=false @1" || second.woke != "timedOut=false @7" {
		t.Fatalf("first park ended %q, second %q; want timedOut=false @1 and @7", first.woke, second.woke)
	}
}

func TestStartStepOnLiveProcessPanics(t *testing.T) {
	env := NewEnv()
	var p Proc
	env.StartStep(&p, idleStepper{})
	defer func() {
		if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), "live process") {
			t.Fatalf("recovered %v, want a panic about the live process", v)
		}
	}()
	env.StartStep(&p, idleStepper{})
}

func TestCallbackOnlyRunNeedsNoGoroutine(t *testing.T) {
	env := NewEnv()
	before := runtime.NumGoroutine()
	peak := 0
	env.onPop = func(float64, int64, int) { peak = max(peak, runtime.NumGoroutine()) }
	target := env.SpawnStep(&progStepper{
		w:  &progWorld{env: env, plain: make([]bool, 1)},
		pr: &prog{ops: []progOp{{kind: 't', d: 3}, {kind: 'a', d: 1}}},
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !target.Done() || env.Now() != 4 || env.LiveProcs() != 0 {
		t.Fatalf("done=%v now=%g live=%d, want true 4 0", target.Done(), env.Now(), env.LiveProcs())
	}
	if peak > before {
		t.Fatalf("a run of callback processes started goroutines: %d -> %d", before, peak)
	}
}

// ---------------------------------------------------------------------------
// Goroutine lifetime.

// waitGoroutines polls until the goroutine count is back at want: a
// released goroutine acknowledges before it has fully exited.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDeadlockReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	unwound := 0
	for run := 0; run < 100; run++ {
		env := NewEnv()
		r := NewResource(env, "nic", 1)
		for i := 0; i < 10; i++ {
			i := i
			env.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				defer func() {
					unwound++
					p.Advance(1) // a deferred call that tries to block must not hang the release
					t.Error("released process resumed after a blocking call")
				}()
				p.Advance(float64(i))
				if i%2 == 0 {
					p.Park()
				} else {
					r.Acquire(p) // the first holder never releases: the rest queue forever
					p.Park()
				}
			})
		}
		err := env.Run()
		if err == nil || !strings.Contains(err.Error(), "p9") {
			t.Fatalf("run %d: want a deadlock naming every process, got %v", run, err)
		}
		if n := env.LiveProcs(); n != 0 {
			t.Fatalf("run %d: %d processes still registered after the release", run, n)
		}
	}
	// Run waits for each released goroutine's deferred calls.
	if unwound != 1000 {
		t.Fatalf("%d of 1000 deadlocked processes unwound before Run returned", unwound)
	}
	waitGoroutines(t, before)
}

// ---------------------------------------------------------------------------
// Await.

func TestAwaitReleasedAtDeadlock(t *testing.T) {
	before := runtime.NumGoroutine()
	unwound := 0
	for run := 0; run < 50; run++ {
		env := NewEnv()
		w := &progWorld{env: env, plain: make([]bool, 1)}
		env.Spawn("awaiter", func(p *Proc) {
			defer func() { unwound++ }()
			// The stepper is named prog0; the report must use the Spawn name.
			p.Await(&progStepper{w: w, pr: &prog{ops: []progOp{{kind: 'a', d: 1}, {kind: 'p'}}}})
			t.Error("a released process returned from Await")
		})
		err := env.Run()
		if err == nil || !strings.Contains(err.Error(), "parked processes: [awaiter]") {
			t.Fatalf("run %d: want a deadlock naming the awaiting process, got %v", run, err)
		}
		if n := env.LiveProcs(); n != 0 {
			t.Fatalf("run %d: %d processes still registered after the release", run, n)
		}
	}
	if unwound != 50 {
		t.Fatalf("%d of 50 released awaiters unwound before Run returned", unwound)
	}
	waitGoroutines(t, before)
}

// lateIdle schedules its first wakeup, then breaks the contract.
type lateIdle struct{ armed bool }

func (s *lateIdle) Step(p *Proc) bool {
	if !s.armed {
		s.armed = true
		p.WakeIn(1)
	}
	return false
}
func (s *lateIdle) Name() string { return "late-idle" }

func TestAwaitStepWithoutWakeupPanics(t *testing.T) {
	for _, body := range []Stepper{idleStepper{}, &lateIdle{}} {
		env := NewEnv()
		var recovered interface{}
		env.Spawn("awaiter", func(p *Proc) {
			defer func() { recovered = recover() }()
			p.Await(body)
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if v := fmt.Sprint(recovered); !strings.Contains(v, `"awaiter"`) {
			t.Fatalf("%s: recovered %v, want a panic naming the process", body.Name(), recovered)
		}
	}
}

func TestWorkerPoolStopsWithRun(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, deadlock := range []bool{false, true} {
		env := NewEnv()
		env.SetWorkers(3)
		for i := 0; i < 6; i++ {
			env.Spawn("w", func(p *Proc) {
				p.Compute(0.5, func() float64 { return 1 })
				if deadlock {
					p.Park()
				}
			})
		}
		if err := env.Run(); (err != nil) != deadlock {
			t.Fatalf("deadlock=%v: %v", deadlock, err)
		}
	}
	waitGoroutines(t, before)
}
