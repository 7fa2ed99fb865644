package recover

import "testing"

func TestBuddyDistinctAndPermutation(t *testing.T) {
	grids := [][3]int{{2, 2, 2}, {4, 2, 2}, {1, 2, 2}, {1, 1, 4}, {4, 4, 4}, {1, 2, 1}}
	for _, g := range grids {
		dx, dy, dz := g[0], g[1], g[2]
		p := dx * dy * dz
		seen := make(map[int]bool)
		for d := 0; d < p; d++ {
			b := Buddy(d, dx, dy, dz)
			if b < 0 || b >= p {
				t.Fatalf("grid %v: Buddy(%d) = %d out of range", g, d, b)
			}
			if b == d {
				t.Errorf("grid %v: Buddy(%d) is itself", g, d)
			}
			if seen[b] {
				t.Errorf("grid %v: buddy %d mirrored twice", g, b)
			}
			seen[b] = true
		}
	}
	if b := Buddy(0, 1, 1, 1); b != 0 {
		t.Errorf("1×1×1 grid: Buddy(0) = %d, want self", b)
	}
}

func TestLogBoundedDepth(t *testing.T) {
	l := NewLog(2, 2, 1, 1)
	owned := []int{10, 20}
	l.BeginEpoch(-1, owned)
	for step := 0; step < 9; step++ {
		if step > 0 && step%3 == 0 {
			l.BeginEpoch(step, owned)
		}
		l.LogStep(step, owned)
	}
	if got := len(l.epochs); got != logDepth {
		t.Fatalf("log kept %d epochs, want %d", got, logDepth)
	}
	// The surviving epochs must be the two newest (steps 3 and 6).
	if l.epochs[0].step != 3 || l.epochs[1].step != 6 {
		t.Fatalf("surviving epochs start at %d,%d; want 3,6", l.epochs[0].step, l.epochs[1].step)
	}
}

func TestLogRestorePicksNewestCoveredEpoch(t *testing.T) {
	l := NewLog(2, 2, 1, 1)
	l.BeginEpoch(-1, []int{5, 7})
	l.LogStep(0, []int{5, 7})
	l.BeginEpoch(1, []int{6, 6})
	l.LogStep(1, []int{6, 6})

	// maxStep 0: the rebuild at step 1 has not globally completed — the
	// mid-migration window. Restore must fall back to the older epoch.
	mc, ok := l.Restore(1, 0)
	if !ok || mc.Step != -1 {
		t.Fatalf("Restore(1, 0) = %+v ok=%v, want the attempt-start epoch", mc, ok)
	}
	if want := int64(2 * bytesPerCoord * 7); mc.Bytes != want {
		t.Errorf("restored bytes = %d, want %d", mc.Bytes, want)
	}

	// maxStep 1: the rebuild epoch is covered and preferred.
	mc, ok = l.Restore(1, 1)
	if !ok || mc.Step != 1 {
		t.Fatalf("Restore(1, 1) = %+v ok=%v, want epoch step 1", mc, ok)
	}
}

func TestLogResentSumsNeighbourHalo(t *testing.T) {
	l := NewLog(3, 3, 1, 1)
	owned := []int{1, 2, 3}
	l.BeginEpoch(-1, owned)
	for step := 0; step < 4; step++ {
		l.LogStep(step, owned)
	}
	// Replay steps (0, 2]: steps 1 and 2, neighbours 0 and 2.
	got := l.Resent([]int{0, 2}, 0, 2)
	want := int64(2 * 2 * bytesPerCoord * (1 + 3))
	if got != want {
		t.Fatalf("Resent = %d, want %d", got, want)
	}
	if l.Resent(nil, 0, 2) != 0 {
		t.Error("Resent with no neighbours should be zero")
	}
}

func TestLostBreakdown(t *testing.T) {
	b := LostBreakdown{Rewind: 1, Replay: 2, Park: 7}
	if b.Total() != 10 {
		t.Fatalf("Total = %v, want 10", b.Total())
	}
}
