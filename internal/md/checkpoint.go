package md

import (
	"fmt"

	"repro/internal/vec"
)

// Checkpoint is the serializable dynamic state of an Engine: everything
// needed to continue a deterministic trajectory (positions, velocities,
// forces and the step geometry). The topology and configuration are NOT
// stored — restart requires the same System and Config the checkpoint was
// taken with, which the caller owns.
type Checkpoint struct {
	N          int
	TimestepFS float64
	Pos        []vec.V
	Vel        []vec.V
	Frc        []vec.V

	// ListOrigin is the Verlet-list build origin at checkpoint time (nil
	// if no list was built yet). Restoring it makes a restarted
	// trajectory bitwise-identical to the uninterrupted one: the restart
	// reuses the pair list built at these positions instead of rebuilding
	// at the restored positions, which would legitimately reorder
	// floating-point sums.
	ListOrigin []vec.V
}

// Snapshot captures the engine's dynamic state as an in-memory checkpoint
// with its own backing arrays (safe to hold across further integration).
func (e *Engine) Snapshot() *Checkpoint {
	cp := &Checkpoint{
		N:          e.Sys.N(),
		TimestepFS: e.Cfg.TimestepFS,
		Pos:        make([]vec.V, len(e.Pos)),
		Vel:        make([]vec.V, len(e.Vel)),
		Frc:        make([]vec.V, len(e.Frc)),
	}
	copy(cp.Pos, e.Pos)
	copy(cp.Vel, e.Vel)
	copy(cp.Frc, e.Frc)
	if e.listOrigin != nil {
		cp.ListOrigin = append([]vec.V(nil), e.listOrigin...)
	}
	return cp
}

// Restore rewinds the engine to an in-memory checkpoint. The checkpoint
// must come from an engine over a system with the same atom count and the
// same timestep; anything else is an error, not a silent
// reinterpretation. When the checkpoint carries a list origin the pair
// list is rebuilt at those positions, reproducing the interrupted run's
// list state exactly; otherwise the list is invalidated so the next
// evaluation rebuilds it.
func (e *Engine) Restore(cp *Checkpoint) error {
	if cp.N != e.Sys.N() {
		return fmt.Errorf("md: checkpoint has %d atoms, engine has %d", cp.N, e.Sys.N())
	}
	if cp.TimestepFS != e.Cfg.TimestepFS {
		return fmt.Errorf("md: checkpoint timestep %g fs, engine %g fs", cp.TimestepFS, e.Cfg.TimestepFS)
	}
	if len(cp.Pos) != cp.N || len(cp.Vel) != cp.N || len(cp.Frc) != cp.N {
		return fmt.Errorf("md: corrupt checkpoint (array lengths %d/%d/%d for N=%d)",
			len(cp.Pos), len(cp.Vel), len(cp.Frc), cp.N)
	}
	if len(cp.ListOrigin) != 0 && len(cp.ListOrigin) != cp.N {
		return fmt.Errorf("md: corrupt checkpoint (list origin has %d atoms for N=%d)",
			len(cp.ListOrigin), cp.N)
	}
	copy(e.Pos, cp.Pos)
	copy(e.Vel, cp.Vel)
	copy(e.Frc, cp.Frc)
	if len(cp.ListOrigin) == cp.N {
		if e.listOrigin == nil {
			e.listOrigin = make([]vec.V, cp.N)
		}
		copy(e.listOrigin, cp.ListOrigin)
		if e.lister == nil {
			e.lister = e.FF.NewPairLister()
		}
		e.pairs = e.lister.Build(e.listOrigin, nil)
	} else {
		e.listOrigin = nil // force a list rebuild at the next evaluation
	}
	return nil
}
