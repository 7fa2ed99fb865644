package pmd

import (
	"errors"
	"os"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/md"
	"repro/internal/netmodel"
)

// TestKillRestartBitwiseIdentical is the acceptance path: run, get killed
// mid-flight (a kill -9 after step 3 is a 3-step run), restart from the on-disk
// ring, and the stitched figures must match an uninterrupted run bitwise
// — with the post-checkpoint work booked as Lost.
func TestKillRestartBitwiseIdentical(t *testing.T) {
	sys := testSystem(48, 24, 3)
	net := netmodel.TCPGigE()
	cost := cluster.PentiumIII1GHz()
	cl := clusterCfg(4, 1, net)
	const steps, halt = 6, 3
	mk := func(dir string, steps int) ResilientConfig {
		return ResilientConfig{
			Config: Config{
				System:     sys,
				MD:         testMDConfig(),
				Steps:      steps,
				Middleware: MiddlewareMPI,
			},
			CheckpointEvery: 2,
			RestartCost:     5,
			CheckpointDir:   dir,
		}
	}

	ref, err := RunResilient(cl, cost, mk("", steps))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	halted, err := RunResilient(cl, cost, mk(dir, halt))
	if err != nil {
		t.Fatal(err)
	}
	if len(halted.Energies) != halt {
		t.Fatalf("halted run reports %d steps, want %d", len(halted.Energies), halt)
	}

	resumed, err := RunResilient(cl, cost, mk(dir, steps))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed == nil {
		t.Fatal("restart ignored the on-disk checkpoint")
	}
	// Halt was at step 3, newest checkpoint at step 2: one step of work
	// died with the process and must come back as Lost.
	if resumed.Resumed.Step != 2 {
		t.Fatalf("resumed at step %d, want 2", resumed.Resumed.Step)
	}
	if resumed.Resumed.SkippedCheckpoints != 0 {
		t.Fatalf("intact ring reports %d skipped", resumed.Resumed.SkippedCheckpoints)
	}
	if resumed.Resumed.LostOnDisk <= 0 {
		t.Fatal("killed post-checkpoint work booked no Lost time")
	}
	if resumed.LostTotal() < resumed.Resumed.LostOnDisk {
		t.Fatal("on-disk Lost did not reach the merged accounting")
	}

	stitched := append(append([]md.EnergyReport{}, halted.Energies[:resumed.Resumed.Step]...), resumed.Energies...)
	if len(stitched) != len(ref.Energies) {
		t.Fatalf("stitched %d steps, reference %d", len(stitched), len(ref.Energies))
	}
	for i := range stitched {
		if stitched[i] != ref.Energies[i] {
			t.Fatalf("step %d: stitched energies differ from uninterrupted reference", i)
		}
	}
	for i, p := range ref.Final.FinalPos {
		if resumed.Final.FinalPos[i] != p {
			t.Fatalf("atom %d: final position differs from uninterrupted reference", i)
		}
	}
}

// TestRestartSurvivesCorruptNewestCheckpoint: damage the newest on-disk
// checkpoint and the restart falls back one interval — and still matches
// the uninterrupted reference bitwise from the older cut.
func TestRestartSurvivesCorruptNewestCheckpoint(t *testing.T) {
	sys := testSystem(48, 24, 5)
	net := netmodel.TCPGigE()
	cost := cluster.PentiumIII1GHz()
	cl := clusterCfg(4, 1, net)
	const steps = 6
	mk := func(dir string, steps int) ResilientConfig {
		return ResilientConfig{
			Config: Config{
				System:     sys,
				MD:         testMDConfig(),
				Steps:      steps,
				Middleware: MiddlewareMPI,
			},
			CheckpointEvery: 1, // a checkpoint per step: corruption costs exactly one step
			RestartCost:     5,
			CheckpointDir:   dir,
		}
	}

	ref, err := RunResilient(cl, cost, mk("", steps))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	halted, err := RunResilient(cl, cost, mk(dir, 4)) // killed after step 4
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte in the newest checkpoint (step 4).
	ring := &md.CheckpointRing{Dir: dir}
	buf, err := os.ReadFile(ring.Path(4))
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/3] ^= 0x40
	if err := os.WriteFile(ring.Path(4), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := RunResilient(cl, cost, mk(dir, steps))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed == nil {
		t.Fatal("restart ignored the ring")
	}
	if resumed.Resumed.Step != 3 || resumed.Resumed.SkippedCheckpoints != 1 {
		t.Fatalf("resumed at step %d with %d skipped, want 3 and 1",
			resumed.Resumed.Step, resumed.Resumed.SkippedCheckpoints)
	}
	stitched := append(append([]md.EnergyReport{}, halted.Energies[:3]...), resumed.Energies...)
	for i := range stitched {
		if stitched[i] != ref.Energies[i] {
			t.Fatalf("step %d: stitched energies differ after corruption fallback", i)
		}
	}
}

// TestResilientConfigValidation: bad knobs come back as typed
// ConfigErrors naming the field, not silent clamps.
func TestResilientConfigValidation(t *testing.T) {
	sys := testSystem(27, 24, 19)
	net := netmodel.TCPGigE()
	base := func() ResilientConfig {
		return ResilientConfig{Config: Config{
			System: sys, MD: testMDConfig(), Steps: 2, Middleware: MiddlewareMPI,
		}}
	}
	cases := []struct {
		name  string
		field string
		tweak func(*ResilientConfig)
	}{
		{"negative checkpoint interval", "CheckpointEvery", func(c *ResilientConfig) { c.CheckpointEvery = -1 }},
		{"negative ring depth", "KeepCheckpoints", func(c *ResilientConfig) { c.KeepCheckpoints = -2 }},
		{"negative restart cost", "RestartCost", func(c *ResilientConfig) { c.RestartCost = -5 }},
		{"negative restart budget", "MaxRestarts", func(c *ResilientConfig) { c.MaxRestarts = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.tweak(&cfg)
			_, err := RunResilient(clusterCfg(2, 1, net), cluster.PentiumIII1GHz(), cfg)
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("want ConfigError, got %v", err)
			}
			if ce.Field != tc.field {
				t.Errorf("error names field %q, want %q", ce.Field, tc.field)
			}
		})
	}

	// CheckpointEvery 0 is the documented default, not an error.
	cfg := base()
	cfg.CheckpointEvery = 0
	if _, err := RunResilient(clusterCfg(2, 1, net), cluster.PentiumIII1GHz(), cfg); err != nil {
		t.Fatalf("zero CheckpointEvery rejected: %v", err)
	}
}

// TestDeterministicAcrossHostWorkers: the same durable kill/restart
// sequence replayed with a different engine worker count (HostWorkers)
// produces the same on-disk state and figures.
func TestDeterministicAcrossHostWorkers(t *testing.T) {
	sys := testSystem(48, 24, 23)
	net := netmodel.TCPGigE()
	cost := cluster.PentiumIII1GHz()
	sc, err := fault.ParseSpec("straggler@0:1,node=1,slow=3")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *ResilientResult {
		dir := t.TempDir()
		cfg := ResilientConfig{
			Config: Config{
				System: sys, MD: testMDConfig(), Steps: 2, // killed after step 2
				Middleware: MiddlewareMPI, HostWorkers: workers,
			},
			Scenario:        sc,
			CheckpointEvery: 2,
			RestartCost:     5,
			CheckpointDir:   dir,
		}
		if _, err := RunResilient(clusterCfg(4, 1, net), cost, cfg); err != nil {
			t.Fatal(err)
		}
		cfg.Steps = 4
		res, err := RunResilient(clusterCfg(4, 1, net), cost, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(4)
	if a.Wall != b.Wall {
		t.Errorf("wall differs across workers: %g vs %g", a.Wall, b.Wall)
	}
	for i := range a.Energies {
		if a.Energies[i] != b.Energies[i] {
			t.Fatalf("step %d: energies differ across workers", i)
		}
	}
	if a.LostTotal() != b.LostTotal() {
		t.Errorf("lost differs across workers: %g vs %g", a.LostTotal(), b.LostTotal())
	}
}

// TestOnStepFiresOnceTheStepIsDurable: the driver's hook sees each step
// once, in order, and only after the step's checkpoint and progress mark
// are on disk — a consumer that streams a step may rely on a restart not
// losing it.
func TestOnStepFiresOnceTheStepIsDurable(t *testing.T) {
	const steps = 5
	dir := t.TempDir()
	ring := &md.CheckpointRing{Dir: dir}
	var fired []int
	_, err := RunResilient(clusterCfg(4, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), ResilientConfig{
		Config: Config{
			System: testSystem(48, 24, 43), MD: testMDConfig(), Steps: steps, Middleware: MiddlewareMPI,
		},
		CheckpointEvery: 1,
		CheckpointDir:   dir,
		OnStep: func(step int, _ StepTiming, _ md.EnergyReport) bool {
			fired = append(fired, step)
			if _, meta, _, err := ring.LoadNewest(); err != nil || meta.Step != step+1 {
				t.Errorf("step %d streamed with newest checkpoint at %d (%v), want %d", step, meta.Step, err, step+1)
			}
			if prog, err := ring.ReadProgress(); err != nil || prog.Step != step+1 {
				t.Errorf("step %d streamed with progress mark at %d (%v), want %d", step, prog.Step, err, step+1)
			}
			return false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fired) != steps {
		t.Fatalf("OnStep fired for steps %v, want each of 0..%d once", fired, steps-1)
	}
	for i, s := range fired {
		if s != i {
			t.Fatalf("OnStep fired for steps %v, want each of 0..%d once", fired, steps-1)
		}
	}
}
