package chaos

import (
	"testing"

	"repro/internal/pmd"
)

// TestReproLine: the printed command carries every field, the
// decomposition and recovery strategy included, in faultbench's flags.
func TestReproLine(t *testing.T) {
	for _, tc := range []struct {
		r    Repro
		want string
	}{
		{
			Repro{DSL: "crash@12,rank=2", Seed: 42, Procs: 4, CPUs: 1, Net: "tcp", Steps: 4, Atoms: 300},
			"faultbench -spec 'crash@12,rank=2' -seed 42 -p 4 -cpus 1 -net tcp -steps 4 -atoms 300 -decomp replicated -recovery global",
		},
		{
			Repro{
				DSL:   "link@0:60,bw=8;straggler@5:25,node=1,slow=4;crash@12,rank=61",
				Seed:  18446744073709551615, // max uint64 prints unsigned
				Procs: 64, CPUs: 2, Net: "myrinet", Steps: 3, Atoms: 600,
				Decomp: pmd.DecompDomain, Recovery: pmd.RecoveryLocal,
			},
			"faultbench -spec 'link@0:60,bw=8;straggler@5:25,node=1,slow=4;crash@12,rank=61' -seed 18446744073709551615 -p 64 -cpus 2 -net myrinet -steps 3 -atoms 600 -decomp domain -recovery local",
		},
	} {
		if got := tc.r.Line(); got != tc.want {
			t.Errorf("Line() = %s\nwant     %s", got, tc.want)
		}
	}
}
