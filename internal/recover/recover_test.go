package recover

import "testing"

func TestLostBreakdown(t *testing.T) {
	b := LostBreakdown{Rewind: 1, Replay: 2, Park: 7}
	if b.Total() != 10 {
		t.Fatalf("Total = %v, want 10", b.Total())
	}
}
