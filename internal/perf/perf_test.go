package perf

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
)

// synthetic builds a 2-rank, 3-step timing table with rank 1 computing
// twice rank 0's classic share (the imbalance the analyzer must attribute).
func synthetic() ([][]StepTiming, float64, []mpi.Accounting) {
	rows := make([][]StepTiming, 2)
	for step := 0; step < 3; step++ {
		// classic: rank0 1s comp, rank1 2s comp; both then wait/sync to 2s.
		// pme: balanced 1s comp + 0.5s comm each.
		pme := Sample{Comp: 1, Comm: 0.5, Wall: 1.5}
		rows[0] = append(rows[0], StepTiming{Classic: Sample{Comp: 1, Sync: 1, Wall: 2}, PME: pme})
		rows[1] = append(rows[1], StepTiming{Classic: Sample{Comp: 2, Wall: 2}, PME: pme})
	}
	// Whole-run accounting: the 3 steps plus 1s of setup compute each.
	acct := []mpi.Accounting{
		{Comp: 1 + 3*(1+1), Comm: 3 * 0.5, Sync: 3 * 1},
		{Comp: 1 + 3*(2+1), Comm: 3 * 0.5, Sync: 0},
	}
	// wall = slowest path: 1 setup + 3*(2+1.5) = 11.5
	return rows, 11.5, acct
}

func TestAnalyzeIdentityAndImbalance(t *testing.T) {
	rows, wall, acct := synthetic()
	p := Analyze(rows, 0, wall, acct, nil, nil)

	if got := p.Attribution.Sum(); math.Abs(got-wall) > 1e-9 {
		t.Fatalf("attribution identity: buckets sum to %g, wall %g", got, wall)
	}
	if p.Steps != 3 || p.Ranks != 2 {
		t.Fatalf("shape: steps=%d ranks=%d", p.Steps, p.Ranks)
	}
	// classic imbalance: max 6 / mean 4.5 (rank totals 3 and 6... mean is
	// (3+6)/2=4.5) → 6/4.5.
	cl := p.Phases[PhaseClassic]
	if math.Abs(cl.Imbalance-6.0/4.5) > 1e-12 {
		t.Fatalf("classic imbalance = %g, want %g", cl.Imbalance, 6.0/4.5)
	}
	pme := p.Phases[PhasePME]
	if math.Abs(pme.Imbalance-1) > 1e-12 {
		t.Fatalf("pme imbalance = %g, want 1", pme.Imbalance)
	}
	// Direct imbalance per classic cell: max 2 − mean 1.5 = 0.5 → 1.5s
	// total, all inside the measured sync (1.5s mean).
	if math.Abs(p.Attribution.ImbalanceSeconds-1.5) > 1e-9 {
		t.Fatalf("imbalance bucket = %g, want 1.5", p.Attribution.ImbalanceSeconds)
	}
	// Critical path: per step max walls 2 + 1.5 → 10.5 over 3 steps.
	if math.Abs(p.CriticalPath.Seconds-10.5) > 1e-9 {
		t.Fatalf("critical path = %g, want 10.5", p.CriticalPath.Seconds)
	}
	// Walls tie in every cell (rank 0 waits out rank 1's excess), and
	// ties go to the lowest rank — so occupancy concentrates on rank 0.
	if p.CriticalPath.Occupancy[0] != 1 || p.CriticalPath.Occupancy[1] != 0 {
		t.Fatalf("occupancy = %v", p.CriticalPath.Occupancy)
	}
	if p.CriticalPath.DominantRank != 0 {
		t.Fatalf("dominant rank = %d", p.CriticalPath.DominantRank)
	}
}

func TestAnalyzeDominant(t *testing.T) {
	cases := []struct {
		att  Attribution
		want string
	}{
		{Attribution{ComputeSeconds: 6, CommSeconds: 4, WallSeconds: 10}, "compute"},
		{Attribution{ComputeSeconds: 3, CommSeconds: 5, WaitSeconds: 2, WallSeconds: 10}, "comm"},
		{Attribution{ComputeSeconds: 3, ImbalanceSeconds: 5, WallSeconds: 10}, "imbalance"},
		{Attribution{ComputeSeconds: 2, RecoverySeconds: 7, WallSeconds: 10}, "recovery"},
		{Attribution{ComputeSeconds: 4, WaitSeconds: 5, WallSeconds: 10}, "wait"},
	}
	for _, c := range cases {
		if got := dominant(c.att); got != c.want {
			t.Errorf("dominant(%+v) = %q, want %q", c.att, got, c.want)
		}
	}
}

func TestCommAggregates(t *testing.T) {
	tl := NewTimeline()
	dense := [][]int{{0, 10, 0}, {0, 0, 20}, {0, 0, 0}}
	tl.Collective(trace.Call{Kind: "alltoallv", Ranks: 3, Sizes: dense})
	tl.Collective(trace.Call{Kind: "alltoallv", Ranks: 3, Sizes: dense})
	tl.Collective(trace.Call{Kind: "allgatherv", Ranks: 3, Blocks: []int{5, 5, 5}})
	tl.Collective(trace.Call{Kind: "allreduce", Ranks: 3, Bytes: 64})
	halo := mpi.NewSparse(3, func(add func(i, j, bytes int)) {
		add(0, 1, 3)
		add(1, 0, 3)
	})
	tl.Collective(trace.Call{Kind: "alltoallv_sparse", Ranks: 3, Pairs: halo, Name: "halo"})
	tl.Interval(trace.Event{Rank: 1, Kind: trace.KindCompute, End: 1}) // kept by no one
	p := Analyze(make([][]StepTiming, 3), 0, 1, nil, nil, tl)

	if len(p.Collectives) != 4 {
		t.Fatalf("collectives: %+v", p.Collectives)
	}
	// Sorted by kind: allgatherv, allreduce, alltoallv, alltoallv_sparse.
	if p.Collectives[0].Kind != "allgatherv" || p.Collectives[0].Bytes != 30 {
		t.Fatalf("allgatherv stat: %+v", p.Collectives[0])
	}
	if p.Collectives[1].Kind != "allreduce" || p.Collectives[1].Calls != 1 || p.Collectives[1].Bytes != 64 {
		t.Fatalf("allreduce stat: %+v", p.Collectives[1])
	}
	if p.Collectives[2].Kind != "alltoallv" || p.Collectives[2].Calls != 2 || p.Collectives[2].Bytes != 60 {
		t.Fatalf("alltoallv stat: %+v", p.Collectives[2])
	}
	if p.Collectives[3].Kind != "alltoallv_sparse" || p.Collectives[3].Calls != 1 || p.Collectives[3].Bytes != 6 {
		t.Fatalf("alltoallv_sparse stat: %+v", p.Collectives[3])
	}
	if p.CommMatrix[0][1] != 28 || p.CommMatrix[1][2] != 45 || p.CommMatrix[1][0] != 8 {
		t.Fatalf("matrix: %v", p.CommMatrix)
	}
	if len(p.NamedMatrices) != 1 || p.NamedMatrices[0].Bytes[0][1] != 3 || p.NamedMatrices[0].Bytes[1][2] != 0 ||
		p.NamedMatrices[0].Calls != 1 {
		t.Fatalf("named: %+v", p.NamedMatrices)
	}
}

func TestEncodeParseRoundTrip(t *testing.T) {
	rows, wall, acct := synthetic()
	p := Analyze(rows, 0, wall, acct, &RecoveryDetail{ReplaySeconds: 1, Events: 2}, nil)
	b1, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("round trip changed bytes:\n%s\n----\n%s", b1, b2)
	}
	if q.Recovery == nil || q.Recovery.Events != 2 {
		t.Fatalf("recovery lost: %+v", q.Recovery)
	}
	if _, err := Parse([]byte(`{"schema":"repro/perf/v0"}`)); err == nil {
		t.Fatal("unknown schema accepted")
	}
	if _, err := Parse([]byte(`{`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestRecordObsGauges(t *testing.T) {
	rows, wall, acct := synthetic()
	p := Analyze(rows, 0, wall, acct, nil, nil)
	reg := obs.NewRegistry()
	p.RecordObs(reg)
	got := reg.Value("repro_imbalance_ratio", obs.L("phase", "classic"))
	if math.Abs(got-6.0/4.5) > 1e-12 {
		t.Fatalf("repro_imbalance_ratio{classic} = %g", got)
	}
	if v := reg.Value("repro_attribution_seconds", obs.L("bucket", "compute")); v != p.Attribution.ComputeSeconds {
		t.Fatalf("attribution gauge = %g", v)
	}
}

// TestProfileIsAFunctionOfTheRecord: the profile depends on the rows, the
// base, the accounting, the wall and the communication log, and on nothing
// else. Ranks fill their own rows concurrently and finish in a shuffled
// order (rank 0 also feeding the log, as in a run); no byte moves. The rows
// start at global step 6 of 8 with the last rank slowest in every cell, so
// the steps that have no rows must not appear as cells either.
func TestProfileIsAFunctionOfTheRecord(t *testing.T) {
	const ranks, base, ran = 4, 6, 2
	acct := make([]mpi.Accounting, ranks)
	build := func(order []int) []byte {
		rows := make([][]StepTiming, ranks)
		tl := NewTimeline()
		turn := make([]chan struct{}, ranks+1)
		for i := range turn {
			turn[i] = make(chan struct{})
		}
		var wg sync.WaitGroup
		for i, r := range order {
			wg.Add(1)
			go func(i, r int) {
				defer wg.Done()
				var row []StepTiming
				for s := 0; s < ran; s++ {
					w := float64(r+1) + float64(s)/8
					row = append(row, StepTiming{
						Classic: Sample{Comp: w, Wall: w, Bytes: 8},
						PME:     Sample{Comp: 1, Comm: w / 2, Wall: 1 + w/2},
					})
					if r == 0 {
						tl.Collective(trace.Call{Kind: "allreduce", Ranks: ranks, Bytes: 8})
						tl.Collective(trace.Call{Kind: "allgatherv", Ranks: ranks, Blocks: []int{1, 2, 3, 4}})
					}
				}
				<-turn[i] // finish in the order given
				rows[r] = row
				close(turn[i+1])
			}(i, r)
		}
		close(turn[0])
		wg.Wait()
		b, err := Analyze(rows, base, 20, acct, nil, tl).Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ref := build([]int{0, 1, 2, 3})
	for _, order := range [][]int{{3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}} {
		if got := build(order); !bytes.Equal(got, ref) {
			t.Fatalf("ranks finishing in order %v changed the profile:\n%s\n----\n%s", order, got, ref)
		}
	}
	p, err := Parse(ref)
	if err != nil {
		t.Fatal(err)
	}
	if p.Steps != base+ran {
		t.Fatalf("steps = %d, want the global count %d", p.Steps, base+ran)
	}
	if cp := p.CriticalPath; cp.DominantRank != ranks-1 || cp.Occupancy[ranks-1] != 1 || cp.Occupancy[0] != 0 {
		t.Fatalf("critical path counts cells no rank ran: dominant %d, occupancy %v", cp.DominantRank, cp.Occupancy)
	}
	if len(p.Collectives) != 2 || p.Collectives[1].Calls != ran {
		t.Fatalf("collectives: %+v", p.Collectives)
	}
}
