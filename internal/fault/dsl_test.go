package fault

import (
	"testing"
)

func TestDSLFixedPoint(t *testing.T) {
	cases := []string{
		"straggler@5:25,node=1,slow=4",
		"link@0:60,bw=8,lat=4,stall=3",
		"flap@10,node=0,dur=0.5,count=3,period=20",
		"crash@12,rank=3",
		"link@0,bw=2;crash@5,rank=0;straggler@1:2,slow=1.5",
		"crash@0.083,rank=2",
	}
	for _, dsl := range cases {
		s, err := ParseSpec(dsl)
		if err != nil {
			t.Fatalf("%q: %v", dsl, err)
		}
		canon := s.DSL()
		s2, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical %q of %q: %v", canon, dsl, err)
		}
		if got := s2.DSL(); got != canon {
			t.Errorf("not a fixed point: %q -> %q -> %q", dsl, canon, got)
		}
	}
}

func TestDSLOmitsDefaults(t *testing.T) {
	s, err := ParseSpec("link@3,bw=2")
	if err != nil {
		t.Fatal(err)
	}
	// Validate normalized lat/stall to 1 — the rendering must not print
	// them, nor the all-nodes default, nor the crash-only rank key.
	if got, want := s.DSL(), "link@3,bw=2"; got != want {
		t.Errorf("DSL() = %q, want %q", got, want)
	}
	s, err = ParseSpec("crash@1,rank=0")
	if err != nil {
		t.Fatal(err)
	}
	// rank 0 IS printed for crashes: omitting it would hide the target.
	if got, want := s.DSL(), "crash@1,rank=0"; got != want {
		t.Errorf("DSL() = %q, want %q", got, want)
	}
}

func TestScaleSaturatesInsteadOfOverflowing(t *testing.T) {
	s := &Scenario{Faults: []Spec{
		{Kind: KindStraggler, Start: 0, Node: -1, Slowdown: 1e308},
		{Kind: KindFlap, Start: 0, Node: 0, Duration: 1e308, Count: 1},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := s.Scale(3).Validate(); err != nil {
		t.Fatalf("amplified scenario invalid: %v", err)
	}
}
