package figures

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/pmd"
)

// CellKeyVersion is the format version embedded in every rendered cell
// key. Bump it whenever the rendering below (or the meaning of any field
// that feeds it) changes, so persisted results keyed under the old scheme
// can never be mistaken for results of the new one.
const CellKeyVersion = 3

// CellKey identifies one fully specified experiment cell: the simulated
// platform, the middleware variant and the measured workload. It is the
// single source of truth for run-result identity — the Suite's in-memory
// run cache and any on-disk content-addressed store (internal/serve) key
// results with the same rendered string, so the two can never disagree
// about which configurations are interchangeable.
//
// Deliberately excluded: host-side knobs that do not alter the simulated
// results (worker-pool size, obs wiring, output format). Figure output is
// bitwise identical across those, which is what makes the key safe to
// share between processes.
type CellKey struct {
	Cluster    cluster.Config     // platform: nodes × CPUs, network, stall seed
	Middleware pmd.MiddlewareKind // MPI, CMPI or MPI with modern collectives
	Steps      int                // measured MD steps
	FaultSpec  string             // fault-DSL scenario ("" = healthy)
	Decomp     pmd.DecompKind     // replicated-data or spatial domains
}

// String renders the canonical versioned key.
func (k CellKey) String() string {
	return fmt.Sprintf("cell/v%d %s mw=%v steps=%d fault=%q decomp=%v",
		CellKeyVersion, k.Cluster.Key(), k.Middleware, k.Steps, k.FaultSpec, k.Decomp)
}
