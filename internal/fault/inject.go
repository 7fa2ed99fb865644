package fault

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// window is one materialized degradation window (jitter already applied).
type window struct {
	kind       Kind
	start, end float64 // end = +inf encoded as 0 handled at materialize
	node       int     // -1 = all
	bwDiv      float64
	latMul     float64
	stallMul   float64
	compMul    float64
}

func (w window) active(t float64, node int) bool {
	if t < w.start || (w.end > 0 && t >= w.end) {
		return false
	}
	return w.node < 0 || w.node == node
}

// crash is one materialized rank kill.
type crash struct {
	spec int // index into Scenario.Faults, for consumption tracking
	rank int
	at   float64
}

// flap is one materialized NIC-busy occurrence.
type flap struct {
	node     int
	at       float64
	duration float64
}

// Options adapts an injector to a restarted run.
type Options struct {
	// Offset shifts every query: a restarted simulation begins at local
	// time 0 but the scenario clock has already advanced by Offset.
	Offset float64
	// ConsumedCrashes lists Scenario.Faults indices of crashes that
	// already fired in earlier attempts and must not fire again.
	ConsumedCrashes []int
}

// Injector materializes a scenario and implements cluster.FaultModel.
// All randomness (jitter) is drawn at construction from a source seeded by
// the scenario seed, so two injectors built from the same scenario and
// options behave identically.
type Injector struct {
	opts    Options
	windows []window
	crashes []crash
	flaps   []flap
}

const jitterSeedSalt = 0x6661756c74 // "fault"

// NewInjector validates and materializes the scenario.
func NewInjector(sc *Scenario, opts Options) (*Injector, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	consumed := make(map[int]bool, len(opts.ConsumedCrashes))
	for _, i := range opts.ConsumedCrashes {
		consumed[i] = true
	}
	src := rng.New(sc.Seed ^ jitterSeedSalt)
	inj := &Injector{opts: opts}
	for i, f := range sc.Faults {
		// One jitter draw per spec regardless of use keeps the stream
		// aligned when specs are toggled by severity scaling upstream.
		var dt float64
		if sc.Jitter > 0 {
			dt = src.Range(-sc.Jitter, sc.Jitter)
		}
		start := f.Start + dt
		if start < 0 {
			start = 0
		}
		end := f.End
		if end > 0 {
			end += dt
			if end <= start {
				continue // jittered into nothing
			}
		}
		switch f.Kind {
		case KindLink:
			inj.windows = append(inj.windows, window{
				kind: KindLink, start: start, end: end, node: f.Node,
				bwDiv: f.Bandwidth, latMul: f.Latency, stallMul: f.Stall, compMul: 1,
			})
		case KindStraggler:
			inj.windows = append(inj.windows, window{
				kind: KindStraggler, start: start, end: end, node: f.Node,
				bwDiv: 1, latMul: 1, stallMul: 1, compMul: f.Slowdown,
			})
		case KindFlap:
			for k := 0; k < f.Count; k++ {
				inj.flaps = append(inj.flaps, flap{
					node: f.Node, at: start + float64(k)*f.Period, duration: f.Duration,
				})
			}
		case KindCrash:
			if !consumed[i] {
				inj.crashes = append(inj.crashes, crash{spec: i, rank: f.Rank, at: start})
			}
		}
	}
	return inj, nil
}

// scenarioTime maps local virtual time to the scenario clock.
func (in *Injector) scenarioTime(now float64) float64 { return now + in.opts.Offset }

// ComputeScale implements cluster.FaultModel: the product of all straggler
// multipliers active on node.
func (in *Injector) ComputeScale(now float64, node int) float64 {
	t := in.scenarioTime(now)
	s := 1.0
	for _, w := range in.windows {
		if w.kind == KindStraggler && w.active(t, node) {
			s *= w.compMul
		}
	}
	return s
}

// LinkScale implements cluster.FaultModel: the product of all link
// degradations active on node.
func (in *Injector) LinkScale(now float64, node int) (bandwidthDiv, latencyMul float64) {
	t := in.scenarioTime(now)
	bandwidthDiv, latencyMul = 1, 1
	for _, w := range in.windows {
		if w.kind == KindLink && w.active(t, node) {
			bandwidthDiv *= w.bwDiv
			latencyMul *= w.latMul
		}
	}
	return bandwidthDiv, latencyMul
}

// StallBoost implements cluster.FaultModel: link windows boost the TCP
// stall probability fabric-wide (stalls are a fabric property in the
// model, keyed on total active flows).
func (in *Injector) StallBoost(now float64) float64 {
	t := in.scenarioTime(now)
	s := 1.0
	for _, w := range in.windows {
		if w.kind == KindLink && (t >= w.start && (w.end == 0 || t < w.end)) {
			s *= w.stallMul
		}
	}
	return s
}

// CrashTime implements cluster.FaultModel: the earliest unconsumed crash
// scheduled for rank, translated to local time and clamped at 0 (a crash
// from before a restart's offset fires immediately — it was only skipped
// if explicitly consumed).
func (in *Injector) CrashTime(rank int) (float64, bool) {
	best, found := 0.0, false
	for _, c := range in.crashes {
		if c.rank != rank {
			continue
		}
		local := c.at - in.opts.Offset
		if local < 0 {
			local = 0
		}
		if !found || local < best {
			best, found = local, true
		}
	}
	return best, found
}

// CrashSpecAt returns the Scenario.Faults index of the unconsumed crash
// for rank nearest local time t, for marking it consumed after recovery.
func (in *Injector) CrashSpecAt(rank int) (int, bool) {
	bestT, bestSpec, found := 0.0, -1, false
	for _, c := range in.crashes {
		if c.rank != rank {
			continue
		}
		local := c.at - in.opts.Offset
		if local < 0 {
			local = 0
		}
		if !found || local < bestT {
			bestT, bestSpec, found = local, c.spec, true
		}
	}
	return bestSpec, found
}

// Install implements cluster.FaultModel: spawn one process per NIC-flap
// occurrence that seizes the node's transmit and receive engines for the
// flap duration. Flaps wholly before the offset are skipped; partially
// elapsed ones run for their remainder.
func (in *Injector) Install(m *cluster.Machine) {
	for _, f := range in.flaps {
		if f.node < 0 || f.node >= len(m.Nodes) {
			continue
		}
		at := f.at - in.opts.Offset
		dur := f.duration
		if at < 0 {
			dur += at // clip the already-elapsed part
			at = 0
			if dur <= 0 {
				continue
			}
		}
		m.Env.SpawnStep(&flapper{node: m.Nodes[f.node], start: at, hold: dur})
	}
}

// flapper is the callback process of one NIC-flap occurrence: wait for the
// start, seize the transmit then the receive engine (queueing behind any
// transfer in progress), hold both for the duration, release.
type flapper struct {
	node        *cluster.Node
	start, hold float64
	state       int
}

func (f *flapper) Step(p *sim.Proc) bool {
	for {
		f.state++
		switch f.state {
		case 1:
			p.WakeIn(f.start)
			return false
		case 2:
			if !f.node.NicTx.AcquireStep(p) {
				return false
			}
		case 3:
			if !f.node.NicRx.AcquireStep(p) {
				return false
			}
		case 4:
			p.WakeIn(f.hold)
			return false
		default:
			f.node.NicRx.Release()
			f.node.NicTx.Release()
			return true
		}
	}
}

func (f *flapper) Name() string { return fmt.Sprintf("flap node%d", f.node.ID) }

// Events renders the injected faults as trace events so timelines show
// the windows. Node-scoped faults land on the node's first rank lane;
// fabric-wide windows on every node's first lane. Open windows are closed
// at horizon.
func (in *Injector) Events(nodes, cpusPerNode int, horizon float64) []trace.Event {
	var evs []trace.Event
	lane := func(node int) int { return node * cpusPerNode }
	clip := func(start, end float64) (float64, float64, bool) {
		start -= in.opts.Offset
		end -= in.opts.Offset
		if start < 0 {
			start = 0
		}
		if end > horizon {
			end = horizon
		}
		return start, end, end > start
	}
	emit := func(node int, label string, start, end float64) {
		s, e, ok := clip(start, end)
		if !ok {
			return
		}
		evs = append(evs, trace.Event{Rank: lane(node), Kind: trace.KindFault, Label: label, Start: s, End: e})
	}
	for _, w := range in.windows {
		end := w.end
		if end == 0 {
			end = horizon + in.opts.Offset
		}
		var label string
		if w.kind == KindStraggler {
			label = fmt.Sprintf("fault:straggler x%.3g", w.compMul)
		} else {
			label = fmt.Sprintf("fault:link bw/%.3g lat x%.3g", w.bwDiv, w.latMul)
		}
		if w.node >= 0 {
			if w.node < nodes {
				emit(w.node, label, w.start, end)
			}
		} else {
			for n := 0; n < nodes; n++ {
				emit(n, label, w.start, end)
			}
		}
	}
	for _, f := range in.flaps {
		if f.node < nodes {
			emit(f.node, "fault:nic-flap", f.at, f.at+f.duration)
		}
	}
	for _, c := range in.crashes {
		node := c.rank / cpusPerNode
		if node < nodes {
			emit(node, fmt.Sprintf("fault:crash rank%d", c.rank), c.at, c.at+horizon/200+1e-9)
		}
	}
	return evs
}
