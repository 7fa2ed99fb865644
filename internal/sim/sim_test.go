package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

// Advance blocks the process for d seconds of virtual time, the plain
// blocking form the tests write their goroutine processes in.
func (p *Proc) Advance(d float64) {
	p.WakeIn(d)
	p.Yield()
}

func TestSingleProcAdvance(t *testing.T) {
	env := NewEnv()
	var times []float64
	env.Spawn("a", func(p *Proc) {
		times = append(times, p.Now())
		p.Advance(1.5)
		times = append(times, p.Now())
		p.Advance(0)
		times = append(times, p.Now())
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1.5, 1.5}
	for i, w := range want {
		if times[i] != w {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
	if env.Now() != 1.5 {
		t.Fatalf("final time %g", env.Now())
	}
}

func TestInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		env := NewEnv()
		var log []string
		for _, cfg := range []struct {
			name string
			dt   float64
			n    int
		}{{"a", 1, 3}, {"b", 0.7, 4}} {
			cfg := cfg
			env.Spawn(cfg.name, func(p *Proc) {
				for i := 0; i < cfg.n; i++ {
					p.Advance(cfg.dt)
					log = append(log, cfg.name)
				}
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := strings.Join(run(), "")
	for i := 0; i < 5; i++ {
		if got := strings.Join(run(), ""); got != first {
			t.Fatalf("non-deterministic interleaving: %q vs %q", got, first)
		}
	}
	// Events must appear in time order: b at .7,1.4 precede a at 1.0? No —
	// order is b(0.7) a(1.0) b(1.4) a(2.0) b(2.1) b(2.8) a(3.0).
	if first != "babbaba"[:len(first)] && first != "babababa"[:len(first)] {
		// Compute expected explicitly.
		want := "bababba" // 0.7,1.0,1.4,2.0,2.1,2.8,3.0
		if first != want {
			t.Fatalf("order %q, want %q", first, want)
		}
	}
}

func TestTimeNeverGoesBackwards(t *testing.T) {
	env := NewEnv()
	var last float64
	for i := 0; i < 10; i++ {
		dt := float64(10-i) * 0.1
		env.Spawn("p", func(p *Proc) {
			for j := 0; j < 5; j++ {
				p.Advance(dt)
				if p.Now() < last {
					t.Errorf("time decreased: %g after %g", p.Now(), last)
				}
				last = p.Now()
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestParkUnpark(t *testing.T) {
	env := NewEnv()
	var order []string
	var waiter *Proc
	waiter = env.Spawn("waiter", func(p *Proc) {
		order = append(order, "park")
		p.Park()
		order = append(order, "resumed")
		if p.Now() != 2.0 {
			t.Errorf("resumed at %g, want 2.0", p.Now())
		}
	})
	env.Spawn("waker", func(p *Proc) {
		p.Advance(2.0)
		p.env.Unpark(waiter)
		order = append(order, "unparked")
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := "park,unparked,resumed"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

func TestDeadlockDetected(t *testing.T) {
	env := NewEnv()
	env.Spawn("stuck", func(p *Proc) {
		p.Park()
	})
	err := env.Run()
	if err == nil {
		t.Fatal("deadlock not detected")
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("error %q does not name the parked process", err)
	}
}

func TestSpawnFromRunningProc(t *testing.T) {
	env := NewEnv()
	var childRan bool
	env.Spawn("parent", func(p *Proc) {
		p.Advance(1)
		p.env.Spawn("child", func(c *Proc) {
			if c.Now() != 1 {
				t.Errorf("child started at %g", c.Now())
			}
			c.Advance(0.5)
			childRan = true
		})
		p.Advance(2)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestResourceFCFS(t *testing.T) {
	env := NewEnv()
	var r *Resource
	var order []int
	var times []float64
	setup := env.Spawn("setup", func(p *Proc) {
		r = NewResource(p.env, "nic", 1)
	})
	_ = setup
	for i := 0; i < 3; i++ {
		i := i
		env.Spawn("user", func(p *Proc) {
			p.Advance(float64(i) * 0.1) // stagger arrivals: 0.0, 0.1, 0.2
			r.Acquire(p)
			p.Advance(1.0)
			r.Release()
			order = append(order, i)
			times = append(times, p.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("service order %v, want FCFS", order)
	}
	want := []float64{1.0, 2.0, 3.0}
	for i := range want {
		if d := times[i] - want[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("completion times %v, want %v", times, want)
		}
	}
}

func TestResourceCapacity2(t *testing.T) {
	env := NewEnv()
	var r *Resource
	var finish []float64
	env.Spawn("setup", func(p *Proc) {
		r = NewResource(p.env, "dual", 2)
	})
	for i := 0; i < 4; i++ {
		env.Spawn("user", func(p *Proc) {
			p.Advance(0.001)
			r.Use(p, 1.0)
			finish = append(finish, p.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Two served in the first second, two in the next.
	if !(about(finish[0], 1.001) && about(finish[1], 1.001) && about(finish[2], 2.001) && about(finish[3], 2.001)) {
		t.Fatalf("finish times %v", finish)
	}
}

func about(a, b float64) bool { d := a - b; return d < 1e-9 && d > -1e-9 }

// holder takes a unit of r, holds it for d and releases it, n times.
type holder struct {
	r     *Resource
	d     float64
	n     int
	phase int
}

func (h *holder) Step(p *Proc) bool {
	for {
		switch h.phase {
		case 0:
			if h.n == 0 {
				return true
			}
			h.n--
			h.phase = 1
			if !h.r.AcquireStep(p) {
				return false
			}
		case 1:
			h.phase = 2
			p.WakeIn(h.d)
			return false
		default:
			h.r.Release()
			h.phase = 0
		}
	}
}

func (h *holder) Name() string { return "holder" }

// TestContendedResourceAllocatesNothing: four holders queue on one unit.
// Once the waiter queue has grown to them, handing the unit on allocates
// nothing and the queue keeps no served process reachable.
func TestContendedResourceAllocatesNothing(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, "nic", 1)
	var procs [4]Proc
	var holders [4]holder
	run := func() {
		for i := range holders {
			holders[i] = holder{r: r, d: 0.5, n: 50}
			env.StartStep(&procs[i], &holders[i])
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("a contended run allocates %v times", n)
	}
	if cap(r.waiters) > 2*len(holders) {
		t.Fatalf("waiter queue grew to %d slots for %d holders", cap(r.waiters), len(holders))
	}
	for i, p := range r.waiters[:cap(r.waiters)] {
		if p != nil {
			t.Fatalf("served process %q still queued in slot %d", p.Name(), i)
		}
	}
}

func TestResourceValidation(t *testing.T) {
	env := NewEnv()
	env.Spawn("p", func(p *Proc) {
		r := NewResource(p.env, "r", 1)
		defer func() {
			if recover() == nil {
				t.Error("release of idle resource did not panic")
			}
		}()
		r.Release()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("zero capacity did not panic")
		}
	}()
	NewResource(env, "bad", 0)
}

func TestNegativeAdvancePanics(t *testing.T) {
	env := NewEnv()
	env.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative advance did not panic")
			}
		}()
		p.Advance(-1)
	})
	// The panic is recovered inside the proc, which then finishes normally.
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcsScale(t *testing.T) {
	env := NewEnv()
	const n = 500
	var total int
	for i := 0; i < n; i++ {
		env.Spawn("w", func(p *Proc) {
			for j := 0; j < 20; j++ {
				p.Advance(0.01)
			}
			total++
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if total != n {
		t.Fatalf("finished %d of %d", total, n)
	}
}

func TestFinishedProcsAreReaped(t *testing.T) {
	env := NewEnv()
	env.Spawn("main", func(p *Proc) {
		for i := 0; i < 100; i++ {
			// Every ParkTimeout spawns a helper timer; all must be reaped.
			p.ParkTimeout(0.001)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if n := env.LiveProcs(); n != 0 {
		t.Fatalf("%d live procs after completion, want 0", n)
	}
	if len(env.procs) != 0 {
		t.Fatalf("proc table holds %d entries after completion, want 0", len(env.procs))
	}
}

func TestRandomAdvanceSequencesProperty(t *testing.T) {
	// For any set of processes with arbitrary advance sequences, virtual
	// time observed by each process is non-decreasing and the run
	// terminates.
	f := func(raw [][]uint16) bool {
		if len(raw) == 0 || len(raw) > 12 {
			return true
		}
		env := NewEnv()
		ok := true
		for _, seq := range raw {
			if len(seq) > 50 {
				seq = seq[:50]
			}
			seq := seq
			env.Spawn("p", func(p *Proc) {
				last := p.Now()
				for _, d := range seq {
					p.Advance(float64(d) * 1e-6)
					if p.Now() < last {
						ok = false
					}
					last = p.Now()
				}
			})
		}
		if err := env.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
