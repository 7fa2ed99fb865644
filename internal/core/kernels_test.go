package core

import (
	"strings"
	"testing"
)

// figureTexts renders the probe figures from one quick study built with
// the given kernel-worker count.
func figureTexts(t *testing.T, kw int) map[string]string {
	t.Helper()
	s := NewStudy(Options{Quick: true, Steps: 1, Procs: []int{1, 2}, KernelWorkers: kw})
	out := map[string]string{}
	for _, id := range []string{"3", "7"} {
		var b strings.Builder
		if err := s.Figure(id, &b, FormatText); err != nil {
			t.Fatalf("figure %s (kernel-workers %d): %v", id, kw, err)
		}
		out[id] = b.String()
	}
	return out
}

// The figure-suite face of the determinism contract: rendered figures are
// byte-identical at every kernel-worker count — the kernels' shards and
// their merge order do not depend on it, and figure cells derive from work
// counters and the virtual-time schedule besides.
func TestFigureBytesStableAcrossKernelWorkers(t *testing.T) {
	ref := figureTexts(t, 1)
	for _, kw := range []int{2} {
		got := figureTexts(t, kw)
		for id, want := range ref {
			if got[id] != want {
				t.Fatalf("figure %s differs between kernel-workers 1 and %d:\n%s\nvs\n%s",
					id, kw, want, got[id])
			}
		}
	}
}
