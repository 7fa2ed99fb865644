// Package fault is the scripted, deterministic fault-injection subsystem
// for the simulated cluster. A Scenario is a list of time-windowed fault
// Specs — link degradation, straggler CPUs, NIC flaps, rank crashes —
// loaded from JSON or a compact flag DSL. An Injector materializes a
// scenario (applying seeded jitter once, so runs are bit-reproducible) and
// implements cluster.FaultModel for the transport layers to consult.
package fault

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// maxFlapCount bounds flap repetition so a hostile Count cannot make the
// injector materialize an unbounded occurrence list.
const maxFlapCount = 10000

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Kind enumerates the fault types.
type Kind string

const (
	// KindLink degrades the wire: bandwidth divided, latency multiplied,
	// TCP stall probability boosted, for every transfer touching Node (or
	// all nodes) inside the window.
	KindLink Kind = "link"
	// KindStraggler multiplies compute time on Node (or all nodes) inside
	// the window — the noisy-neighbor / thermal-throttle model.
	KindStraggler Kind = "straggler"
	// KindFlap holds Node's NIC transmit and receive engines busy for
	// Duration starting at Start, repeated Count times every Period.
	KindFlap Kind = "flap"
	// KindCrash kills Rank at virtual time Start.
	KindCrash Kind = "crash"
)

// Spec is one fault. Which fields matter depends on Kind; zero-valued
// multipliers mean "no change" and are normalized to 1 by Validate.
type Spec struct {
	Kind  Kind    `json:"kind"`
	Start float64 `json:"start"`          // window open / crash or flap time (virtual s)
	End   float64 `json:"end,omitempty"`  // window close; 0 = open-ended
	Node  int     `json:"node"`           // target node; -1 = all nodes
	Rank  int     `json:"rank,omitempty"` // crash target

	Bandwidth float64 `json:"bandwidth,omitempty"` // link: bandwidth divisor (≥ 1)
	Latency   float64 `json:"latency,omitempty"`   // link: latency multiplier (≥ 1)
	Stall     float64 `json:"stall,omitempty"`     // link: stall-probability multiplier (≥ 1)
	Slowdown  float64 `json:"slowdown,omitempty"`  // straggler: compute multiplier (≥ 1)

	Duration float64 `json:"duration,omitempty"` // flap: NIC busy time per occurrence
	Count    int     `json:"count,omitempty"`    // flap: occurrences (default 1)
	Period   float64 `json:"period,omitempty"`   // flap: spacing between occurrences
}

// Scenario is a named, seeded fault script.
type Scenario struct {
	Name   string  `json:"name"`
	Seed   uint64  `json:"seed"`
	Jitter float64 `json:"jitter,omitempty"` // ± window applied to Start times, drawn once per spec
	Faults []Spec  `json:"faults"`
}

// Validate normalizes and checks the scenario in place: zero multipliers
// become 1, flap Count defaults to 1, and impossible specs are rejected.
// Non-finite numbers are rejected everywhere — a NaN start time or an
// infinite window would otherwise reach the discrete-event clock — and
// flap counts are bounded so a malicious count cannot blow up injector
// materialization.
func (s *Scenario) Validate() error {
	if !isFinite(s.Jitter) || s.Jitter < 0 {
		return fmt.Errorf("fault: jitter %g must be finite and >= 0", s.Jitter)
	}
	for i := range s.Faults {
		f := &s.Faults[i]
		for _, v := range []float64{f.Start, f.End, f.Bandwidth, f.Latency, f.Stall, f.Slowdown, f.Duration, f.Period} {
			if !isFinite(v) {
				return fmt.Errorf("fault %d: non-finite numeric field", i)
			}
		}
		if f.Count < 0 {
			return fmt.Errorf("fault %d: negative count %d", i, f.Count)
		}
		if f.Count > maxFlapCount {
			return fmt.Errorf("fault %d: count %d exceeds the limit of %d", i, f.Count, maxFlapCount)
		}
		if f.Bandwidth == 0 {
			f.Bandwidth = 1
		}
		if f.Latency == 0 {
			f.Latency = 1
		}
		if f.Stall == 0 {
			f.Stall = 1
		}
		if f.Slowdown == 0 {
			f.Slowdown = 1
		}
		if f.Count == 0 {
			f.Count = 1
		}
		switch f.Kind {
		case KindLink:
			if f.Bandwidth < 1 || f.Latency < 1 || f.Stall < 1 {
				return fmt.Errorf("fault %d: link multipliers must be >= 1", i)
			}
			if f.End != 0 && f.End <= f.Start {
				return fmt.Errorf("fault %d: window end %g not after start %g", i, f.End, f.Start)
			}
		case KindStraggler:
			if f.Slowdown < 1 {
				return fmt.Errorf("fault %d: straggler slowdown %g must be >= 1", i, f.Slowdown)
			}
			if f.End != 0 && f.End <= f.Start {
				return fmt.Errorf("fault %d: window end %g not after start %g", i, f.End, f.Start)
			}
		case KindFlap:
			if f.Duration <= 0 {
				return fmt.Errorf("fault %d: flap needs a positive duration", i)
			}
			if f.Node < 0 {
				return fmt.Errorf("fault %d: flap needs a specific node", i)
			}
			if f.Count > 1 && f.Period <= 0 {
				return fmt.Errorf("fault %d: repeated flap needs a positive period", i)
			}
		case KindCrash:
			if f.Rank < 0 {
				return fmt.Errorf("fault %d: crash needs a rank", i)
			}
		default:
			return fmt.Errorf("fault %d: unknown kind %q", i, f.Kind)
		}
		if f.Start < 0 {
			return fmt.Errorf("fault %d: negative start time %g", i, f.Start)
		}
	}
	return nil
}

// Scale returns a copy of the scenario with every degradation factor
// interpolated toward severity sev: factor' = 1 + (factor-1)*sev, flap
// durations scaled by sev, crashes kept as-is (a crash has no partial
// severity). sev = 0 is a healthy platform, 1 the scenario as written,
// > 1 an amplification.
func (s *Scenario) Scale(sev float64) *Scenario {
	out := &Scenario{Name: s.Name, Seed: s.Seed, Jitter: s.Jitter}
	// Amplifying an already-huge factor can overflow to +Inf, which the
	// event clock must never see; saturate instead.
	clamp := func(v float64) float64 {
		if v > math.MaxFloat64 || math.IsInf(v, 1) {
			return math.MaxFloat64
		}
		return v
	}
	lerp := func(f float64) float64 {
		if f < 1 {
			f = 1
		}
		v := clamp(1 + (f-1)*sev)
		if v < 1 {
			return 1
		}
		return v
	}
	for _, f := range s.Faults {
		g := f
		switch f.Kind {
		case KindLink:
			g.Bandwidth = lerp(f.Bandwidth)
			g.Latency = lerp(f.Latency)
			g.Stall = lerp(f.Stall)
		case KindStraggler:
			g.Slowdown = lerp(f.Slowdown)
		case KindFlap:
			g.Duration = clamp(f.Duration * sev)
			if g.Duration <= 0 {
				continue // severity 0 removes the flap entirely
			}
		}
		out.Faults = append(out.Faults, g)
	}
	return out
}

// Load parses a JSON scenario and validates it.
func Load(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("fault: parse scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	return &s, nil
}

// ParseFlag reads a fault script given on a command line: "@path" is the
// JSON scenario file at path (see Load), anything else the ParseSpec DSL.
func ParseFlag(arg string) (*Scenario, error) {
	path, ok := strings.CutPrefix(arg, "@")
	if !ok {
		return ParseSpec(arg)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// ParseSpec parses the compact flag DSL: semicolon-separated fault specs
// of the form
//
//	kind@start[:end][,key=value...]
//
// with keys node, rank, bw (bandwidth divisor), lat (latency multiplier),
// stall, slow (straggler slowdown), dur, count, period. Examples:
//
//	straggler@5:25,node=1,slow=4
//	link@0:60,bw=8,lat=4,stall=3
//	flap@10,node=0,dur=0.5,count=3,period=20
//	crash@12,rank=3
//
// Omitted node defaults to -1 (all nodes) for link/straggler faults.
func ParseSpec(dsl string) (*Scenario, error) {
	s := &Scenario{Name: "cli"}
	for _, part := range strings.Split(dsl, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var f Spec
		f.Node = -1
		fields := strings.Split(part, ",")
		head := fields[0]
		at := strings.IndexByte(head, '@')
		if at < 0 {
			return nil, fmt.Errorf("fault: spec %q: want kind@start", head)
		}
		f.Kind = Kind(strings.TrimSpace(head[:at]))
		window := head[at+1:]
		var err error
		if colon := strings.IndexByte(window, ':'); colon >= 0 {
			if f.Start, err = strconv.ParseFloat(window[:colon], 64); err != nil {
				return nil, fmt.Errorf("fault: spec %q: bad start: %v", part, err)
			}
			if f.End, err = strconv.ParseFloat(window[colon+1:], 64); err != nil {
				return nil, fmt.Errorf("fault: spec %q: bad end: %v", part, err)
			}
		} else if f.Start, err = strconv.ParseFloat(window, 64); err != nil {
			return nil, fmt.Errorf("fault: spec %q: bad start: %v", part, err)
		}
		for _, kv := range fields[1:] {
			eq := strings.IndexByte(kv, '=')
			if eq < 0 {
				return nil, fmt.Errorf("fault: spec %q: want key=value, got %q", part, kv)
			}
			key, val := strings.TrimSpace(kv[:eq]), strings.TrimSpace(kv[eq+1:])
			switch key {
			case "node", "rank", "count":
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, fmt.Errorf("fault: spec %q: bad %s: %v", part, key, err)
				}
				switch key {
				case "node":
					f.Node = n
				case "rank":
					f.Rank = n
				case "count":
					f.Count = n
				}
			case "bw", "lat", "stall", "slow", "dur", "period":
				x, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("fault: spec %q: bad %s: %v", part, key, err)
				}
				switch key {
				case "bw":
					f.Bandwidth = x
				case "lat":
					f.Latency = x
				case "stall":
					f.Stall = x
				case "slow":
					f.Slowdown = x
				case "dur":
					f.Duration = x
				case "period":
					f.Period = x
				}
			default:
				return nil, fmt.Errorf("fault: spec %q: unknown key %q", part, key)
			}
		}
		s.Faults = append(s.Faults, f)
	}
	if len(s.Faults) == 0 {
		return nil, fmt.Errorf("fault: empty spec %q", dsl)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// CrashSpecs returns the indices of crash faults, sorted by start time
// then index (the order a run consumes them).
func (s *Scenario) CrashSpecs() []int {
	var idx []int
	for i, f := range s.Faults {
		if f.Kind == KindCrash {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		if s.Faults[idx[a]].Start != s.Faults[idx[b]].Start {
			return s.Faults[idx[a]].Start < s.Faults[idx[b]].Start
		}
		return idx[a] < idx[b]
	})
	return idx
}
