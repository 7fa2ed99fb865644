package fault

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

func TestParseSpecDSL(t *testing.T) {
	sc, err := ParseSpec("straggler@5:25,node=1,slow=4; link@0:60,bw=8,lat=4,stall=3 ;flap@10,node=0,dur=0.5,count=3,period=20;crash@12,rank=3")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Faults) != 4 {
		t.Fatalf("want 4 faults, got %d", len(sc.Faults))
	}
	s := sc.Faults[0]
	if s.Kind != KindStraggler || s.Start != 5 || s.End != 25 || s.Node != 1 || s.Slowdown != 4 {
		t.Fatalf("straggler parsed wrong: %+v", s)
	}
	l := sc.Faults[1]
	if l.Kind != KindLink || l.Bandwidth != 8 || l.Latency != 4 || l.Stall != 3 || l.Node != -1 {
		t.Fatalf("link parsed wrong: %+v", l)
	}
	f := sc.Faults[2]
	if f.Kind != KindFlap || f.Duration != 0.5 || f.Count != 3 || f.Period != 20 {
		t.Fatalf("flap parsed wrong: %+v", f)
	}
	c := sc.Faults[3]
	if c.Kind != KindCrash || c.Rank != 3 || c.Start != 12 {
		t.Fatalf("crash parsed wrong: %+v", c)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"wobble@3",
		"crash",
		"straggler@5,slow=0.5",
		"link@10:5",
		"flap@1,node=0",
		"flap@1,node=0,dur=1,count=2",
		"straggler@5,zoom=2",
		"crash@x,rank=1",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestLoadJSON(t *testing.T) {
	js := `{"name":"mixed","seed":42,"jitter":0.5,"faults":[
		{"kind":"straggler","start":1,"end":3,"node":0,"slowdown":2},
		{"kind":"crash","start":2,"rank":1}
	]}`
	sc, err := Load(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "mixed" || sc.Seed != 42 || len(sc.Faults) != 2 {
		t.Fatalf("scenario parsed wrong: %+v", sc)
	}
	if _, err := Load(strings.NewReader(`{"faults":[{"kind":"straggler","start":1,"bogus":2}]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Load(strings.NewReader(`{"faults":[{"kind":"nope","start":1}]}`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestScaleSeverity(t *testing.T) {
	sc, err := ParseSpec("straggler@0:10,node=0,slow=5;link@0:10,bw=9,lat=3;flap@2,node=0,dur=1;crash@4,rank=2")
	if err != nil {
		t.Fatal(err)
	}
	half := sc.Scale(0.5)
	if got := half.Faults[0].Slowdown; got != 3 {
		t.Fatalf("slowdown at sev 0.5 = %g, want 3", got)
	}
	if got := half.Faults[1].Bandwidth; got != 5 {
		t.Fatalf("bandwidth divisor at sev 0.5 = %g, want 5", got)
	}
	if got := half.Faults[2].Duration; got != 0.5 {
		t.Fatalf("flap duration at sev 0.5 = %g, want 0.5", got)
	}
	if half.Faults[3] != sc.Faults[3] {
		t.Fatal("crash spec must not scale")
	}
	zero := sc.Scale(0)
	for _, f := range zero.Faults {
		switch f.Kind {
		case KindStraggler:
			if f.Slowdown != 1 {
				t.Fatalf("sev 0 straggler slowdown = %g", f.Slowdown)
			}
		case KindFlap:
			t.Fatal("sev 0 must drop flaps")
		}
	}
}

func TestInjectorWindowsAndOffset(t *testing.T) {
	sc, err := ParseSpec("straggler@10:20,node=1,slow=3;link@5:15,bw=4,lat=2,stall=6")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := inj.ComputeScale(15, 1); s != 3 {
		t.Fatalf("in-window compute scale = %g, want 3", s)
	}
	if s := inj.ComputeScale(15, 0); s != 1 {
		t.Fatalf("other-node compute scale = %g, want 1", s)
	}
	if s := inj.ComputeScale(25, 1); s != 1 {
		t.Fatalf("post-window compute scale = %g, want 1", s)
	}
	if bw, lat := inj.LinkScale(10, 0); bw != 4 || lat != 2 {
		t.Fatalf("in-window link scale = %g,%g, want 4,2", bw, lat)
	}
	if s := inj.StallBoost(10); s != 6 {
		t.Fatalf("in-window stall boost = %g, want 6", s)
	}

	// With an offset the same scenario times shift: local t=3 is scenario
	// t=15, inside both windows.
	off, err := NewInjector(sc, Options{Offset: 12})
	if err != nil {
		t.Fatal(err)
	}
	if s := off.ComputeScale(3, 1); s != 3 {
		t.Fatalf("offset compute scale = %g, want 3", s)
	}
	if bw, _ := off.LinkScale(13, 0); bw != 1 {
		t.Fatalf("offset link scale past window = %g, want 1", bw)
	}
}

func TestInjectorCrashConsumption(t *testing.T) {
	sc, err := ParseSpec("crash@7,rank=2;crash@11,rank=2")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if at, ok := inj.CrashTime(2); !ok || at != 7 {
		t.Fatalf("first crash = %g,%v, want 7,true", at, ok)
	}
	spec, ok := inj.CrashSpecAt(2)
	if !ok || spec != 0 {
		t.Fatalf("crash spec = %d,%v, want 0,true", spec, ok)
	}
	if _, ok := inj.CrashTime(0); ok {
		t.Fatal("rank 0 has no crash")
	}

	// After consuming the first crash and offsetting past it, the second
	// remains (translated and clamped).
	next, err := NewInjector(sc, Options{Offset: 9, ConsumedCrashes: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if at, ok := next.CrashTime(2); !ok || at != 2 {
		t.Fatalf("second crash local time = %g,%v, want 2,true", at, ok)
	}
	done, err := NewInjector(sc, Options{ConsumedCrashes: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := done.CrashTime(2); ok {
		t.Fatal("all crashes consumed but CrashTime still fires")
	}
}

func TestJitterDeterministic(t *testing.T) {
	sc := &Scenario{Seed: 99, Jitter: 1, Faults: []Spec{
		{Kind: KindStraggler, Start: 10, End: 20, Node: 0, Slowdown: 2},
		{Kind: KindCrash, Start: 30, Rank: 1},
	}}
	a, err := NewInjector(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ta, oka := a.CrashTime(1)
	tb, okb := b.CrashTime(1)
	if !oka || !okb || ta != tb {
		t.Fatalf("jittered crash times differ: %g vs %g", ta, tb)
	}
	if ta == 30 {
		t.Fatal("jitter did not move the crash time")
	}
	for tm := 0.0; tm < 25; tm += 0.25 {
		if a.ComputeScale(tm, 0) != b.ComputeScale(tm, 0) {
			t.Fatalf("jittered windows differ at t=%g", tm)
		}
	}
}

func TestFlapHoldsNIC(t *testing.T) {
	sc, err := ParseSpec("flap@1,node=0,dur=2")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	m := cluster.New(env, cluster.Config{Nodes: 2, CPUsPerNode: 1, Net: netmodel.TCPGigE()})
	inj.Install(m)
	var acquired float64
	env.Spawn("user", func(p *sim.Proc) {
		p.WakeIn(1.5) // mid-flap
		p.Yield()
		if !m.Nodes[0].NicTx.AcquireStep(p) {
			p.Yield()
		}
		acquired = p.Now()
		m.Nodes[0].NicTx.Release()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if acquired != 3 {
		t.Fatalf("NIC acquired at t=%g, want 3 (after the flap releases)", acquired)
	}
}

func TestEventsForTimeline(t *testing.T) {
	sc, err := ParseSpec("straggler@1:3,node=1,slow=2;crash@2,rank=0;flap@0.5,node=0,dur=1")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	evs := inj.Events(2, 2, 10)
	if len(evs) != 3 {
		t.Fatalf("want 3 events, got %d", len(evs))
	}
	var sawStraggler, sawCrash, sawFlap bool
	for _, e := range evs {
		switch {
		case strings.HasPrefix(e.Label, "fault:straggler"):
			sawStraggler = true
			if e.Rank != 2 {
				t.Fatalf("straggler on lane %d, want 2 (node 1, 2 cpus)", e.Rank)
			}
		case strings.HasPrefix(e.Label, "fault:crash"):
			sawCrash = true
		case e.Label == "fault:nic-flap":
			sawFlap = true
		}
		if e.End <= e.Start {
			t.Fatalf("event %q has empty span", e.Label)
		}
	}
	if !sawStraggler || !sawCrash || !sawFlap {
		t.Fatalf("missing event kinds: straggler=%v crash=%v flap=%v", sawStraggler, sawCrash, sawFlap)
	}
}
