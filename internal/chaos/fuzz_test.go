package chaos

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/pmd"
)

// The two configurations CI fuzzes: the replicated decomposition rewinding
// globally on 4 ranks, and the domain decomposition repairing a crash
// locally on 64, which arms the recovery-fidelity invariant.
var (
	replicated = Config{Seed: 2, Steps: 4, Nodes: 4, Workers: []int{1, 4}}
	domain     = Config{Seed: 8, Steps: 3, Nodes: 64, Decomp: pmd.DecompDomain,
		Recovery: pmd.RecoveryLocal, Workers: []int{1, 2}}
)

// A fuzz input is a run of fixed-width records, one fault each:
//
//	kind  start  span  node  a  b  c
//
// kind mod 4 picks link, straggler, flap or crash. start spans [0, horizon].
// span closes a link or straggler window (0 leaves it open) or sizes a
// flap. node below 128 targets node mod nodes, above it every node; flaps
// and crashes always target node (or rank) mod nodes. a, b and c are the
// link's bandwidth, latency and stall factors, the straggler's slowdown
// (a), and the flap's count (a) and period (b).
const (
	recordLen    = 7
	maxFaults    = 4
	scenarioSeed = 1 // feeds only jitter, which decoded scenarios leave at 0
)

var kinds = [4]fault.Kind{fault.KindLink, fault.KindStraggler, fault.KindFlap, fault.KindCrash}

// round3 rounds to 3 decimals, so a decoded scenario prints compactly in
// the DSL and parses back to itself.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// decode turns fuzz bytes into a scenario over horizon and nodes. It reads
// at most maxFaults records and ignores a trailing partial one, so every
// input is a scenario and dropping bytes drops faults. A second crash
// record is skipped: one crash keeps every scenario recoverable.
func decode(data []byte, horizon float64, nodes int) *fault.Scenario {
	sc := &fault.Scenario{Name: "fuzz", Seed: scenarioSeed}
	scale := func(b byte, lo, hi float64) float64 { return round3(lo + float64(b)/255*(hi-lo)) }
	crashed := false
	for i := 0; i < maxFaults && (i+1)*recordLen <= len(data); i++ {
		r := data[i*recordLen : (i+1)*recordLen]
		f := fault.Spec{Kind: kinds[r[0]%4], Start: scale(r[1], 0, horizon), Node: -1}
		switch f.Kind {
		case fault.KindLink, fault.KindStraggler:
			if r[2] > 0 {
				f.End = round3(f.Start + scale(r[2], 0.001, horizon))
			}
			if r[3] < 128 {
				f.Node = int(r[3]) % nodes
			}
			if f.Kind == fault.KindLink {
				f.Bandwidth, f.Latency, f.Stall = scale(r[4], 1, 9), scale(r[5], 1, 5), scale(r[6], 1, 4)
			} else {
				f.Slowdown = scale(r[4], 1.5, 7)
			}
		case fault.KindFlap:
			f.Node = int(r[3]) % nodes
			f.Duration = scale(r[2], 0.001, 0.1*horizon)
			if f.Count = 1 + int(r[4])%3; f.Count > 1 {
				f.Period = round3(f.Duration + scale(r[5], 0.05*horizon, 0.3*horizon))
			}
		case fault.KindCrash:
			if crashed {
				continue
			}
			crashed = true
			f.Rank = int(r[3]) % nodes
		}
		sc.Faults = append(sc.Faults, f)
	}
	return sc
}

// seeds is the corpus both targets start from, with the DSL each decodes
// to on either target (TestSeedsDecode pins them).
var seeds = []struct {
	name               string
	data               []byte
	replicated, domain string
}{
	{"link", []byte{0, 0, 0, 255, 223, 191, 170},
		"link@0,bw=7.996,lat=3.996,stall=3",
		"link@0,bw=7.996,lat=3.996,stall=3"},
	{"straggler", []byte{1, 26, 128, 1, 116, 0, 0},
		"straggler@0.015:0.087,node=1,slow=4.002",
		"straggler@0.189:1.122,node=1,slow=4.002"},
	{"flap", []byte{2, 43, 128, 0, 2, 85, 0},
		"flap@0.024,node=0,dur=0.008,count=3,period=0.027",
		"flap@0.313,node=0,dur=0.094,count=3,period=0.342"},
	{"crash", []byte{3, 77, 0, 2, 0, 0, 0},
		"crash@0.043,rank=2",
		"crash@0.561,rank=2"},
	// A link degrading everything, a windowed straggler on node 1, a
	// thrice-repeated flap on node 0 and a crash of rank 2.
	{"four-faults", []byte{
		0, 0, 0, 255, 223, 0, 0,
		1, 21, 85, 1, 116, 0, 0,
		2, 43, 128, 0, 2, 85, 0,
		3, 51, 0, 2, 0, 0, 0,
	},
		"link@0,bw=7.996;straggler@0.012:0.06,node=1,slow=4.002;flap@0.024,node=0,dur=0.008,count=3,period=0.027;crash@0.029,rank=2",
		"link@0,bw=7.996;straggler@0.153:0.773,node=1,slow=4.002;flap@0.313,node=0,dur=0.094,count=3,period=0.342;crash@0.372,rank=2"},
	// A crash at 0.6 × horizon. On the domain target this seed checks that
	// localized recovery restores the rewind point's pair-list origin: a
	// crash of rank 46 before 0.5 × horizon passes with that origin dropped.
	{"late-crash", []byte{3, 153, 0, 46, 0, 0, 0},
		"crash@0.086,rank=2",
		"crash@1.115,rank=46"},
}

// TestSeedsDecode pins what every seed decodes to on each target.
func TestSeedsDecode(t *testing.T) {
	for _, cfg := range []*Config{&replicated, &domain} {
		h := harness(t, cfg)
		for _, s := range seeds {
			want := s.replicated
			if cfg == &domain {
				want = s.domain
			}
			if got := decode(s.data, h.horizon, cfg.Nodes).DSL(); got != want {
				t.Errorf("%s on %s/%s decodes to %q, want %q", s.name, cfg.Decomp, cfg.Recovery, got, want)
			}
		}
	}
}

func FuzzReplicated(f *testing.F) { fuzz(f, &replicated) }
func FuzzDomain(f *testing.F)     { fuzz(f, &domain) }

// fuzz checks every scenario decoded from the input against cfg's
// harness, built once before the fuzzing starts.
func fuzz(f *testing.F, cfg *Config) {
	h := harness(f, cfg)
	for _, s := range seeds {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decode(data, h.horizon, cfg.Nodes)
		if len(sc.Faults) == 0 {
			t.Skip("no fault record")
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("decoder bug: %x decodes to %s, which is invalid: %v", data, sc.DSL(), err)
		}
		dsl := sc.DSL()
		if back, err := fault.ParseSpec(dsl); err != nil || back.DSL() != dsl {
			t.Fatalf("decoder bug: %x decodes to %s, which does not round-trip the DSL (%v)", data, dsl, err)
		}
		if inv := h.Check(t, sc); inv != nil {
			t.Fatalf("%v\nscenario:  %s\nreproduce: %s", inv, dsl, Repro{
				DSL: dsl, Seed: cfg.Seed, Procs: cfg.Nodes, CPUs: 1, Net: "tcp", Steps: cfg.Steps,
				Atoms: atoms, Decomp: cfg.Decomp, Recovery: cfg.Recovery,
			}.Line())
		}
	})
}
