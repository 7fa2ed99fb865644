// Package cluster models the experimental platform of the paper: a cluster
// of PC nodes (uni- or dual-processor Pentium III, 1 GHz) joined by one of
// the modelled interconnects. It provides the node resources (NIC transmit/
// receive engines, the interrupt CPU) and the cost model that converts
// counted MD work into virtual CPU seconds.
package cluster

import (
	"fmt"

	"repro/internal/netmodel"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/work"
)

// Config describes one cluster configuration (one cell of the paper's
// factor space, middleware excluded — that lives in the MPI layer).
type Config struct {
	Nodes       int
	CPUsPerNode int // 1 or 2
	Net         netmodel.Params
	Seed        uint64 // stream for network stall draws
}

// Key returns a canonical content fingerprint of the platform
// configuration — every field of the topology and the full network
// parameter set — for use as a run-memoization cache key: two configs with
// equal keys simulate identically (given equal workload and cost model).
func (c Config) Key() string {
	return fmt.Sprintf("nodes=%d cpus=%d seed=%d net=%+v", c.Nodes, c.CPUsPerNode, c.Seed, c.Net)
}

// Validate checks the configuration. New panics on exactly the conditions
// Validate reports, so callers holding user input (the cmd/ binaries)
// validate first and print a one-line error instead of a panic trace.
func (c Config) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("cluster: need at least one node (got %d)", c.Nodes)
	}
	if c.CPUsPerNode != 1 && c.CPUsPerNode != 2 {
		return fmt.Errorf("cluster: unsupported CPUs per node %d (want 1 or 2)", c.CPUsPerNode)
	}
	return nil
}

// FaultModel is the hook the fault-injection layer implements. The machine
// and the MPI transport consult it for time-varying degradation and crash
// schedules; a nil model means a healthy platform. Implementations must be
// deterministic functions of (time, node/rank) — the simulation may query
// them in any order.
type FaultModel interface {
	// ComputeScale returns the compute-time multiplier (> 1 for a
	// straggler) in effect for node at virtual time now.
	ComputeScale(now float64, node int) float64
	// LinkScale returns the bandwidth divisor and latency multiplier in
	// effect for traffic entering or leaving node at now.
	LinkScale(now float64, node int) (bandwidthDiv, latencyMul float64)
	// StallBoost multiplies the TCP stall probability fabric-wide at now.
	StallBoost(now float64) float64
	// CrashTime returns the virtual time at which rank crashes, if ever.
	CrashTime(rank int) (float64, bool)
	// Install attaches machinery that needs the machine itself, e.g.
	// processes that hold NIC resources busy during flap windows.
	Install(m *Machine)
}

// Node holds the shared per-node resources.
type Node struct {
	ID    int
	NicTx *sim.Resource // transmit DMA engine / socket send path
	NicRx *sim.Resource // receive DMA engine
	Intr  *sim.Resource // interrupt CPU (CPU 0) for interrupt-driven nets
}

// Machine is the simulated cluster.
type Machine struct {
	Env   *sim.Env
	Cfg   Config
	Nodes []*Node

	// ActiveFlows counts in-flight transfers fabric-wide; the TCP stall
	// model keys off it.
	ActiveFlows int

	// Faults, when non-nil, degrades the platform (stragglers, link
	// degradation, stall boosts, crash schedules).
	Faults FaultModel

	Rng *rng.Source
}

// New builds a machine inside env.
func New(env *sim.Env, cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	m := &Machine{Env: env, Cfg: cfg, Rng: rng.New(cfg.Seed ^ 0x636c7573746572)}
	for i := 0; i < cfg.Nodes; i++ {
		m.Nodes = append(m.Nodes, &Node{
			ID:    i,
			NicTx: sim.NewResource(env, fmt.Sprintf("node%d.tx", i), 1),
			NicRx: sim.NewResource(env, fmt.Sprintf("node%d.rx", i), 1),
			Intr:  sim.NewResource(env, fmt.Sprintf("node%d.intr", i), 1),
		})
	}
	return m
}

// Ranks returns the number of MPI ranks the machine hosts.
func (m *Machine) Ranks() int { return m.Cfg.Nodes * m.Cfg.CPUsPerNode }

// NodeOf maps a rank to its node (block placement: ranks r and r+1 share a
// node in the dual-CPU configuration, like consecutive MPI ranks under
// typical process managers).
func (m *Machine) NodeOf(rank int) *Node {
	return m.Nodes[rank/m.Cfg.CPUsPerNode]
}

// StallDelay draws a flow-control stall for one message, or 0. It
// implements the TCP pathology: stalls appear only when the fabric carries
// more concurrent flows than the threshold and grow more likely with
// congestion.
func (m *Machine) StallDelay() float64 {
	p := m.Cfg.Net
	if p.StallProb == 0 || m.ActiveFlows <= p.StallFlowThreshold {
		return 0
	}
	prob := p.StallProb * float64(m.ActiveFlows-p.StallFlowThreshold)
	if m.Faults != nil {
		prob *= m.Faults.StallBoost(m.Env.Now())
	}
	if prob > 0.9 {
		prob = 0.9
	}
	if m.Rng.Float64() >= prob {
		return 0
	}
	return m.Rng.Exponential(p.StallMean)
}

// ComputeScaleAt returns the straggler compute-time multiplier in effect
// for node at virtual time now (1 on a healthy machine). Non-positive
// model outputs are treated as 1 — a fault never makes a node infinitely
// fast.
func (m *Machine) ComputeScaleAt(now float64, node int) float64 {
	if m.Faults == nil {
		return 1
	}
	s := m.Faults.ComputeScale(now, node)
	if s <= 0 {
		return 1
	}
	return s
}

// LinkScaleAt returns the bandwidth divisor and latency multiplier for a
// transfer between nodes a and b at now: the worse of the two endpoints'
// degradations governs the link.
func (m *Machine) LinkScaleAt(now float64, a, b int) (bandwidthDiv, latencyMul float64) {
	if m.Faults == nil {
		return 1, 1
	}
	bwA, latA := m.Faults.LinkScale(now, a)
	bwB, latB := m.Faults.LinkScale(now, b)
	bw, lat := max(bwA, bwB), max(latA, latB)
	if bw < 1 {
		bw = 1
	}
	if lat < 1 {
		lat = 1
	}
	return bw, lat
}

// CostModel converts work counters into CPU seconds on the modelled
// processor. The constants are calibrated once (against the phase totals
// `charmmbench -figure factorial` prints for the same runs) so the
// sequential 10-step paper workload lands near the published Fig. 3 wall
// times (classic ≈ 3.4 s, PME ≈ 2.8 s on the 1 GHz Pentium III) and are
// never varied between experiments.
type CostModel struct {
	BondTerm     float64
	AngleTerm    float64
	DihedralTerm float64
	PairEval     float64
	ListDistEval float64
	GridCharge   float64
	FFTOp        float64
	RecipPoint   float64
	Integrate    float64
	Other        float64
}

// PentiumIII1GHz is the calibrated cost model of the paper's cluster nodes.
func PentiumIII1GHz() CostModel {
	return CostModel{
		BondTerm:     0.45e-6,
		AngleTerm:    0.80e-6,
		DihedralTerm: 1.60e-6,
		PairEval:     0.50e-6,
		ListDistEval: 0.032e-6,
		GridCharge:   0.11e-6,
		FFTOp:        7.6e-9,
		RecipPoint:   0.055e-6,
		Integrate:    0.25e-6,
		Other:        0.10e-6,
	}
}

// Seconds converts counters to CPU time.
func (c CostModel) Seconds(w work.Counters) float64 {
	return float64(w.BondTerms)*c.BondTerm +
		float64(w.AngleTerms)*c.AngleTerm +
		float64(w.DihedralTerms)*c.DihedralTerm +
		float64(w.PairEvals)*c.PairEval +
		float64(w.ListDistEvals)*c.ListDistEval +
		float64(w.GridCharges)*c.GridCharge +
		float64(w.FFTOps)*c.FFTOp +
		float64(w.RecipPoints)*c.RecipPoint +
		float64(w.Integrate)*c.Integrate +
		float64(w.Other)*c.Other
}
