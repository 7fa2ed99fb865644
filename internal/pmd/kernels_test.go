package pmd

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
)

// runWithKernelWorkers executes the determinism workload with the host
// kernel pool at the given width.
func runWithKernelWorkers(t *testing.T, p, steps, kw int) *Result {
	t.Helper()
	sys := testSystem(100, 24, 1)
	mdCfg := testMDConfig()
	mdCfg.KernelWorkers = kw
	res, err := Run(clusterCfg(p, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), Config{
		System:     sys,
		MD:         mdCfg,
		Steps:      steps,
		Middleware: MiddlewareMPI,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The kernel pool must not perturb the replicated-determinism claim: a
// simulated run is byte-identical at every kernel-worker count.
func TestKernelWorkersBitwiseStable(t *testing.T) {
	ref := runWithKernelWorkers(t, 4, 3, 1)
	for _, kw := range []int{2, 4} {
		got := runWithKernelWorkers(t, 4, 3, kw)
		mustEqualResults(t, "kernel-workers", ref, got)
	}
}
