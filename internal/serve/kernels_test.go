package serve

import (
	"bytes"
	"testing"
)

// Serve-level face of the kernel determinism contract: the same job spec
// computes byte-identical results at every KernelWorkers.
func TestEnvKernelWorkersBitwiseStable(t *testing.T) {
	spec := JobSpec{Kind: KindRun, Atoms: 200, Steps: 2, Seed: 3, Procs: 2}

	refAt := func(kw int) []byte {
		env := NewEnv()
		env.KernelWorkers = kw
		buf, err := env.ComputeReference(spec)
		if err != nil {
			t.Fatalf("kernel-workers %d: %v", kw, err)
		}
		return buf
	}
	want := refAt(1)
	for _, kw := range []int{2, 4} {
		if got := refAt(kw); !bytes.Equal(got, want) {
			t.Fatalf("kernel-workers %d result differs:\n%s\nvs\n%s", kw, got, want)
		}
	}
}

// Negative KernelWorkers in the server config is clamped to 0 (one
// worker) rather than rejected.
func TestConfigKernelWorkersClamped(t *testing.T) {
	c := Config{StateDir: "x", KernelWorkers: -3}
	if got := c.withDefaults().KernelWorkers; got != 0 {
		t.Fatalf("negative KernelWorkers → %d, want 0", got)
	}
}
