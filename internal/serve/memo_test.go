package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/md"
	"repro/internal/obs"
	"repro/internal/pmd"
	"repro/internal/vec"
)

// memoMix is a run, sweep and analysis mix over two 120-atom systems:
// procs 2, 4 and 8, both decompositions and middlewares, all four
// networks, and several step counts per memo key.
func memoMix(t *testing.T) []JobSpec {
	t.Helper()
	nets := []string{"tcp", "score", "myrinet", "fast"}
	decomps := []string{"replicated", "domain"}
	mws := []string{"mpi", "cmpi"}
	var specs []JobSpec
	for _, seed := range []uint64{1, 2} {
		for i, procs := range []int{2, 4, 8} {
			for j, steps := range []int{2, 5, 3} {
				specs = append(specs, JobSpec{
					Kind: KindRun, Atoms: 120, Steps: steps, Seed: seed, Procs: procs,
					Net: nets[(i+j)%len(nets)], MW: mws[j%2], Decomp: decomps[(i+j+int(seed))%2],
				})
			}
			specs = append(specs, JobSpec{
				Kind: KindSweep, Atoms: 120, Steps: 4, Seed: seed, Procs: procs,
				MW: mws[i%2], Decomp: decomps[i%2], Nets: nets,
			})
		}
		for k, steps := range []int{2, 6, 4} {
			specs = append(specs, JobSpec{Kind: KindAnalysis, Atoms: 120, Steps: steps, Seed: seed, Observable: []string{"rdf", "msd"}[k%2]})
		}
	}
	for i := range specs {
		if err := specs[i].Normalize(); err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
	}
	return specs
}

// sysOf is the memo key of spec's workload.
func sysOf(spec JobSpec) sysCacheKey { return sysCacheKey{spec.Atoms, spec.Seed} }

// references computes every spec directly on one fresh Env.
func references(t *testing.T, specs []JobSpec) [][]byte {
	t.Helper()
	ref := NewEnv()
	want := make([][]byte, len(specs))
	for i, spec := range specs {
		buf, err := ref.ComputeReference(spec)
		if err != nil {
			t.Fatalf("reference %+v: %v", spec, err)
		}
		want[i] = buf
	}
	return want
}

// trajectories counts the memo's workloads whose tape holds states.
func trajectories(e *Env) int {
	n := 0
	for _, m := range e.memos {
		if m.wl != nil && m.wl.tape.Bytes() > 0 {
			n++
		}
	}
	return n
}

func memoTotal(e *Env) int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var total int64
	for el := e.lru.Front(); el != nil; el = el.Next() {
		total += el.Value.(*memo).bytes()
	}
	return total
}

// TestEnvMemoMatchesDirect: a shuffled mix on one Env, each memo key met
// by longer jobs after shorter ones and shorter after longer, serves
// every result byte-equal to a direct computation on a fresh Env.
func TestEnvMemoMatchesDirect(t *testing.T) {
	specs := memoMix(t)
	want := references(t, specs)
	order := rand.New(rand.NewSource(1)).Perm(len(specs))

	longest := map[sysCacheKey]int{}
	var longer, shorter bool
	for _, i := range order {
		k := sysOf(specs[i])
		if n, ok := longest[k]; ok {
			longer = longer || specs[i].Steps > n
			shorter = shorter || specs[i].Steps < n
		}
		longest[k] = max(longest[k], specs[i].Steps)
	}
	if !longer || !shorter {
		t.Fatalf("the order meets no key longer after shorter (%v) or shorter after longer (%v)", longer, shorter)
	}

	env := NewEnv()
	for _, i := range order {
		got, _, _, err := env.Execute(specs[i], "", nil, nil)
		if err != nil {
			t.Fatalf("%+v: %v", specs[i], err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("%+v: memoized bytes differ from the direct computation\n got  %s\n want %s", specs[i], got, want[i])
		}
	}
	if n := trajectories(env); n != len(longest) {
		t.Fatalf("%d trajectories, want one per box (%d)", n, len(longest))
	}
}

// TestEnvMemoMatchesDirectConcurrent: 8 goroutines run the mix in their
// own orders over one Env, so runs and analyses extend and replay the same
// tapes at once; every result is the direct computation's bytes.
func TestEnvMemoMatchesDirectConcurrent(t *testing.T) {
	specs := memoMix(t)
	want := references(t, specs)
	env := NewEnv()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(g))).Perm(len(specs)) {
				got, _, _, err := env.Execute(specs[i], "", nil, nil)
				if err != nil {
					t.Errorf("%+v: %v", specs[i], err)
					return
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("%+v: memoized bytes differ from the direct computation", specs[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEnvMemoBounded: the memo stays within its budget after every job,
// eviction takes the least recently used box first, an evicted tape still
// serves the run holding it, and a job over the eligibility bound reads a
// private tape.
func TestEnvMemoBounded(t *testing.T) {
	// Eligibility is a pure function of the spec: no 4096-atom run needed.
	for _, c := range []struct {
		atoms, steps int
		want         bool
	}{
		{480, 8, true}, {4096, 7, true}, {4096, 18, true}, {4096, 19, false}, {4096, 512, false}, {24, 512, true},
	} {
		if got := memoEligible(c.atoms, c.steps); got != c.want {
			t.Errorf("memoEligible(%d, %d) = %v, want %v", c.atoms, c.steps, got, c.want)
		}
	}
	env := NewEnv()
	reg := obs.NewRegistry()
	env.memoBytes = reg.Gauge("repro_serve_memo_bytes", "")
	env.memoEvictions = reg.Counter("repro_serve_memo_evictions_total", "")
	big := JobSpec{Kind: KindRun, Atoms: 4096, Steps: 512, Procs: 8}
	if env.tape(big, true) != nil || env.tape(JobSpec{Kind: KindAnalysis, Atoms: 4096, Steps: 512}, true) != nil || len(env.memos) != 0 {
		t.Fatal("an over-budget job joined the memo")
	}

	// Three analyses and a run, each over its own box, used in turn; then
	// the first analysis again, so the LRU order is a, tp, c, b (most
	// recent first).
	a := JobSpec{Kind: KindAnalysis, Atoms: 48, Steps: 3, Seed: 1}
	b := JobSpec{Kind: KindAnalysis, Atoms: 48, Steps: 3, Seed: 2}
	c := JobSpec{Kind: KindAnalysis, Atoms: 48, Steps: 3, Seed: 3}
	tp := JobSpec{Kind: KindRun, Atoms: 48, Steps: 2, Seed: 4, Procs: 2}
	for _, spec := range []*JobSpec{&a, &b, &c, &tp} {
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range []JobSpec{a, b, c, tp, a} {
		if _, _, _, err := env.Execute(spec, "", nil, nil); err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if total := memoTotal(env); total > memoBudget || float64(total) != reg.Value("repro_serve_memo_bytes") {
			t.Fatalf("memo holds %d bytes (gauge %g), budget %d", total, reg.Value("repro_serve_memo_bytes"), memoBudget)
		}
	}
	size := func(keys ...any) int64 {
		var b int64
		for _, key := range keys {
			b += env.memos[key].bytes()
		}
		return b
	}
	held := env.memos[sysOf(tp)].wl.tape
	if box := env.memos[sysOf(a)].wl.bytes.Load(); box <= 0 || size(sysOf(a)) <= box {
		t.Fatalf("a's workload holds %d bytes, its box %d", size(sysOf(a)), box)
	}

	evict := func(budget int64, gone ...any) {
		t.Helper()
		env.trim(budget)
		for _, key := range gone {
			if _, ok := env.memos[key]; ok {
				t.Fatalf("trim(%d) kept %+v", budget, key)
			}
		}
	}
	evict(memoTotal(env)-size(sysOf(b)), sysOf(b))
	if n := trajectories(env); n != 3 || len(env.memos) != 3 {
		t.Fatalf("trim to all but b left %d trajectories of %d entries, want 3 of 3", n, len(env.memos))
	}
	evict(size(sysOf(a), sysOf(tp)), sysOf(c))
	evict(size(sysOf(a)), sysOf(tp))
	if _, kept := env.memos[sysOf(a)]; !kept || reg.Value("repro_serve_memo_evictions_total") != 3 {
		t.Fatalf("after three evictions: a kept %v, counter %g", kept, reg.Value("repro_serve_memo_evictions_total"))
	}

	// The evicted tape still serves a longer run over it.
	longer := tp
	longer.Steps = 4
	want, err := NewEnv().ComputeReference(longer)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := env.execRun(longer, "", nil, nil, held)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("run over an evicted tape: err %v, bytes equal %v", err, bytes.Equal(got, want))
	}
}

// TestEnvMemoAnalysisReadsTheRunTape: an analysis job reads its box's one
// trajectory, md.Engine's — ComputeForces, then k Steps for frame k — bit
// for bit. Over a box a run job has stepped as far, it reads the run's
// tape: the tape gains no bytes and the memo holds one trajectory.
func TestEnvMemoAnalysisReadsTheRunTape(t *testing.T) {
	const steps = 4
	run := JobSpec{Kind: KindRun, Atoms: 120, Steps: steps, Seed: 1, Procs: 4}
	rdf := JobSpec{Kind: KindAnalysis, Atoms: 120, Steps: steps, Seed: 1, Observable: "rdf"}
	msd := JobSpec{Kind: KindAnalysis, Atoms: 120, Steps: steps - 1, Seed: 1, Observable: "msd"}
	for _, spec := range []*JobSpec{&run, &rdf, &msd} {
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	env := NewEnv()
	if _, _, _, err := env.Execute(run, "", nil, nil); err != nil {
		t.Fatal(err)
	}
	tape := env.memos[sysOf(run)].wl.tape
	recorded := tape.Bytes()

	sys, mdCfg := env.system(run.Atoms, run.Seed)
	eng := md.NewEngine(sys, mdCfg)
	eng.ComputeForces(nil, nil)
	frames := [][]vec.V{slices.Clone(eng.Pos)}
	for range steps {
		eng.Step(nil, nil)
		frames = append(frames, slices.Clone(eng.Pos))
	}
	for _, spec := range []JobSpec{rdf, msd} {
		got, _, _, err := env.Execute(spec, "", nil, nil)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		want, err := analyze(spec.Observable, sys, frames[:spec.Steps+1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s over %d steps: the job's frames are not md.Engine's\n got  %s\n want %s", spec.Observable, spec.Steps, got, want)
		}
	}
	if b := tape.Bytes(); recorded <= 0 || b != recorded || len(env.memos) != 1 || trajectories(env) != 1 {
		t.Fatalf("after the analyses the run's tape holds %d bytes (%d before) and the memo %d entries, %d trajectories; want no change, 1 and 1",
			b, recorded, len(env.memos), trajectories(env))
	}
}

// TestSweepSharesOneTape: a sweep's networks run over one tape, which
// holds the steps+1 states of one run, and its bytes are those of one
// direct single-network sweep per network.
func TestSweepSharesOneTape(t *testing.T) {
	spec := JobSpec{Kind: KindSweep, Atoms: 120, Steps: 3, Procs: 4, Nets: []string{"tcp", "score", "myrinet", "fast"}}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	got, _, _, err := env.Execute(spec, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	fresh := NewEnv()
	want := sweepPayload{Kind: string(KindSweep)}
	for _, net := range spec.Nets {
		one := spec
		one.Nets = []string{net}
		buf, err := fresh.ComputeReference(one)
		if err != nil {
			t.Fatal(err)
		}
		var p sweepPayload
		if err := json.Unmarshal(buf, &p); err != nil {
			t.Fatal(err)
		}
		want.Rows = append(want.Rows, p.Rows...)
	}
	wantBuf, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBuf) {
		t.Fatalf("4-network sweep differs from four single-network sweeps\n got  %s\n want %s", got, wantBuf)
	}

	if n := trajectories(env); n != 1 {
		t.Fatalf("%d trajectories after one sweep, want its one tape", n)
	}
	one := spec
	one.Nets = spec.Nets[:1]
	single := pmd.NewTape()
	if _, err := fresh.execSweep(one, single); err != nil {
		t.Fatal(err)
	}
	if tape := env.memos[sysOf(spec)].wl.tape; single.Bytes() == 0 || tape.Bytes() != single.Bytes() {
		t.Fatalf("the sweep's tape holds %d bytes, one %d-step run's %d", tape.Bytes(), spec.Steps, single.Bytes())
	}
}

// TestMemoEstimateBoundsBytes pins memoEstimate as an upper bound of
// what a job adds to its workload's tape, term by term, at the worst cases: the
// largest box, whose pair list is the densest, and the most ranks on the
// smallest box, whose size matrices outweigh its atoms and whose list is
// rebuilt the most often. On a fresh Env, a one-step job holds at most its
// first list generation and two states, and the longer job over the same
// tape then adds at most memoStateBytes per atom and state; what a tape
// holds counts every pair list at its capacity, and TestTapeBytesBoundsItsHeap
// (internal/pmd) holds a tape's count to its heap. A 4096-atom job over 18
// steps joins the memo.
func TestMemoEstimateBoundsBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("relaxes a 4096-atom box")
	}
	if !memoEligible(4096, 18) || memoEligible(4096, 19) {
		t.Fatalf("memoEligible(4096, 18) = %v, (4096, 19) = %v; want true, false", memoEligible(4096, 18), memoEligible(4096, 19))
	}
	for _, c := range []struct {
		spec  JobSpec
		steps int // the longer job's
	}{
		{JobSpec{Kind: KindSweep, Atoms: 4096, Steps: 1, Procs: 8, Decomp: "domain", Nets: []string{"tcp"}}, 18},
		{JobSpec{Kind: KindSweep, Atoms: 4096, Steps: 1, Procs: 2, Nets: []string{"tcp"}}, 0},
		{JobSpec{Kind: KindAnalysis, Atoms: 4096, Steps: 1}, 18},
		{JobSpec{Kind: KindSweep, Atoms: 24, Steps: 1, Procs: 32, Decomp: "domain", Nets: []string{"tcp"}}, 64},
		{JobSpec{Kind: KindSweep, Atoms: 480, Steps: 1, Procs: 8, Decomp: "domain", Nets: []string{"tcp"}}, 32},
	} {
		env := NewEnv()
		held := func(spec JobSpec) int64 {
			t.Helper()
			if err := spec.Normalize(); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := env.Execute(spec, "", nil, nil); err != nil {
				t.Fatalf("%+v: %v", spec, err)
			}
			m := env.memos[sysOf(spec)]
			if m == nil {
				t.Fatalf("%+v did not join the memo", spec)
			}
			return m.wl.tape.Bytes()
		}
		spec, atoms := c.spec, int64(c.spec.Atoms)
		one := held(spec)
		t.Logf("%s atoms=%d procs=%d %s: %d bytes in one step, %.0f per atom", spec.Kind, spec.Atoms, spec.Procs, spec.Decomp, one, float64(one)/float64(atoms))
		if est := memoEstimate(spec.Atoms, 1); one <= 0 || one > est {
			t.Errorf("%+v holds %d bytes, estimate %d", spec, one, est)
		}
		if c.steps == 0 {
			continue
		}
		spec.Steps = c.steps
		long := held(spec)
		perState := float64(long-one) / float64(atoms) / float64(c.steps-1)
		t.Logf("  %d steps: %d bytes, %.0f per atom and further state", c.steps, long, perState)
		if est := memoEstimate(spec.Atoms, c.steps); long > est || perState > memoStateBytes {
			t.Errorf("%+v holds %d bytes (%.0f per atom and further state), estimate %d (%d per atom and state)", spec, long, perState, est, memoStateBytes)
		}
	}
}

// TestEnvMemoHoldsSystemsUnderTheBudget: a server fed more distinct seeds
// than the budget holds keeps its held bytes — workloads (relaxed boxes
// and their tapes) and a figure study together — within the budget after
// every job, by evicting the least recently used: the study, then the
// oldest seeds. A smaller budget stands in for memoBudget, which would
// take thousands of small boxes to fill.
func TestEnvMemoHoldsSystemsUnderTheBudget(t *testing.T) {
	env := NewEnv()
	job := func(spec JobSpec, budget int64) {
		t.Helper()
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := env.execute(spec, "", nil, nil, true); err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		env.trim(budget)
		if total := memoTotal(env); total > budget {
			t.Fatalf("after %+v the memo holds %d bytes, budget %d", spec, total, budget)
		}
	}
	analysis := func(seed uint64) JobSpec {
		return JobSpec{Kind: KindAnalysis, Atoms: 48, Steps: 1, Seed: seed, Observable: "msd"}
	}
	job(analysis(1), memoBudget)
	perSeed := memoTotal(env)
	if perSeed <= 0 || len(env.memos) != 1 {
		t.Fatalf("one seed holds %d bytes in %d entries, want > 0 in 1", perSeed, len(env.memos))
	}

	fig := JobSpec{Kind: KindFigure, Figure: "3", Quick: true, Steps: 1, Seed: 1}
	job(fig, memoBudget)
	study := env.memos[studyCacheKey{quick: true, steps: 1, seed: 1}]
	if study == nil || study.bytes() <= systemBytes(study.study.study.System()) {
		t.Fatal("the figure study holds no more than its system's bytes")
	}

	budget := 3*perSeed + perSeed/2
	const seeds = 12
	for seed := uint64(2); seed <= seeds; seed++ {
		job(analysis(seed), budget)
	}
	for _, key := range []any{sysCacheKey{48, 1}, studyCacheKey{quick: true, steps: 1, seed: 1}, sysCacheKey{48, seeds - 5}} {
		if _, ok := env.memos[key]; ok {
			t.Fatalf("%+v outlived newer seeds", key)
		}
	}
	if _, ok := env.memos[sysCacheKey{48, seeds}]; !ok || len(env.memos) < 3 || len(env.memos) > 4 {
		t.Fatalf("after %d seeds: newest system kept %v, %d entries; want true and 3 or 4 seeds' worth", seeds, ok, len(env.memos))
	}
}
