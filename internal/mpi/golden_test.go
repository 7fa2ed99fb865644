package mpi_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cmpi"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/netmodel"
)

// The schedule golden pins the virtual-time outcome of every transport
// path — eager and rendezvous, blocking and split, tree, pairwise and ring
// collectives, with the watchdog off and on — as it was before helper
// processes stopped being goroutines. Any change to the (time, seq) pop
// order, a sequence-number draw or an RNG draw moves at least one entry.
// The file was captured on the commit preceding that change; regenerate
// (UPDATE_GOLDEN=1) only for a change that means to move virtual time.

const goldenPath = "testdata/schedule_golden.json"

// goldenEntry is one pinned run: the virtual wall (latest rank end time),
// the bucket sums for a human reader, and a digest over every rank's end
// time and full Accounting bit patterns.
type goldenEntry struct {
	Wall   string `json:"wall"`
	Comm   string `json:"comm"`
	Sync   string `json:"sync"`
	Digest string `json:"digest"`
	Err    string `json:"err,omitempty"`
}

func g17(v float64) string { return strconv.FormatFloat(v, 'g', 17, 64) }

func summarize(ends []float64, accts []mpi.Accounting, err error) goldenEntry {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	var wall, comm, sync float64
	for i, a := range accts {
		put(math.Float64bits(ends[i]))
		put(math.Float64bits(a.Comp))
		put(math.Float64bits(a.Comm))
		put(math.Float64bits(a.Sync))
		put(math.Float64bits(a.Lost))
		put(uint64(a.BytesSent))
		put(uint64(a.BytesRecv))
		wall = math.Max(wall, ends[i])
		comm += a.Comm
		sync += a.Sync
	}
	e := goldenEntry{Wall: g17(wall), Comm: g17(comm), Sync: g17(sync), Digest: fmt.Sprintf("%x", h.Sum(nil)[:12])}
	if err != nil {
		e.Err = err.Error()
	}
	return e
}

// goldenOps are the pinned rank programs. Each starts with a rank-dependent
// compute stagger so partners arrive out of step and short watchdog rounds
// genuinely expire and retry.
var goldenOps = []struct {
	name string
	fn   func(r *mpi.Rank, net netmodel.Params)
}{
	{"alltoallv_sparse", func(r *mpi.Rank, net netmodel.Params) {
		p := r.Size()
		// Halo-like matrix: two-way neighbours, a one-way long link (send-
		// only / receive-only rounds) and one rendezvous-sized entry.
		sizes := make([][]int, p)
		for i := range sizes {
			sizes[i] = make([]int, p)
			sizes[i][(i+1)%p] = 300 + 40*i
			sizes[i][(i+p-1)%p] = 900 + 8*i
			if i%3 == 0 {
				sizes[i][(i+5)%p] = 5000
			}
		}
		sizes[1][2] = net.EagerLimit + 4096
		r.AlltoallvSparse(sizes)
		r.AlltoallvSparse(sizes)
	}},
	{"allreduce", func(r *mpi.Rank, net netmodel.Params) {
		r.Allreduce(8192, 2e-5)
		r.Allreduce(net.EagerLimit+512, 1e-4)
	}},
	{"bcast", func(r *mpi.Rank, net netmodel.Params) {
		r.Bcast(2, 4096)
		r.Bcast(0, net.EagerLimit+1)
	}},
	{"sendrecv_blocking", func(r *mpi.Rank, net netmodel.Params) {
		p := r.Size()
		for _, bytes := range []int{0, 1500, net.EagerLimit, net.EagerLimit + 1, 4 * net.EagerLimit} {
			// Odd p leaves the last rank out of the pairing.
			switch {
			case r.ID%2 == 0 && r.ID+1 < p:
				r.Send(r.ID+1, 11, bytes)
				r.Recv(r.ID+1, 12)
			case r.ID%2 == 1:
				r.Recv(r.ID-1, 11)
				r.Send(r.ID-1, 12, bytes)
			}
		}
	}},
	{"ring_rendezvous", func(r *mpi.Rank, net netmodel.Params) {
		blocks := make([]int, r.Size())
		for i := range blocks {
			blocks[i] = net.EagerLimit + 100*i
		}
		r.AllgathervRing(blocks)
		r.AllreduceRecursiveDoubling(2048, 1e-5)
		r.Barrier()
	}},
	{"cmpi_ring", func(r *mpi.Rank, net netmodel.Params) {
		cmpi.New(r).Allreduce(4096, 1e-5)
	}},
	{"alltoallv_dense", func(r *mpi.Rank, net netmodel.Params) {
		// Every round posts, empty entries included; one entry is
		// rendezvous-sized.
		p := r.Size()
		sizes := make([][]int, p)
		for i := range sizes {
			sizes[i] = make([]int, p)
			for j := range sizes[i] {
				if i != j && (i+j)%4 != 0 {
					sizes[i][j] = 200 + 30*i + 7*j
				}
			}
		}
		sizes[2][0] = net.EagerLimit + 2048
		r.Alltoallv(sizes)
	}},
	{"gather_allgatherv", func(r *mpi.Rank, net netmodel.Params) {
		// MPICH-1 Allgatherv: a linear Gather to rank 0, then a Bcast of
		// the concatenation; one block is rendezvous-sized.
		blocks := make([]int, r.Size())
		for i := range blocks {
			blocks[i] = 600 + 90*i
		}
		blocks[3] = net.EagerLimit + 777
		r.Allgatherv(blocks)
	}},
	{"cmpi_sparse", func(r *mpi.Rank, net netmodel.Params) {
		p := r.Size()
		sizes := make([][]int, p)
		for i := range sizes {
			sizes[i] = make([]int, p)
			sizes[i][(i+1)%p] = 700 + 11*i
			if i%2 == 0 {
				sizes[i][(i+p-3)%p] = net.EagerLimit + 64
			}
		}
		m := cmpi.New(r)
		m.AlltoallvSparse(sizes)
		m.Barrier()
	}},
}

var goldenNets = []string{"tcp", "score", "myrinet"}

// goldenRun executes fn on every rank and summarizes the outcome. Each
// rank's end time is recorded by a deferred hook, so ranks that abort by
// panic (crash, watchdog) still contribute the instant they died.
func goldenRun(cfg cluster.Config, opts mpi.Options, fn func(*mpi.Rank)) (goldenEntry, error) {
	ends := make([]float64, cfg.Nodes*cfg.CPUsPerNode)
	accts, err := mpi.RunOpts(cfg, cluster.PentiumIII1GHz(), opts, func(r *mpi.Rank) {
		defer func() { ends[r.ID] = r.Now() }()
		fn(r)
	})
	return summarize(ends, accts, err), err
}

func computeGolden(t *testing.T) map[string]goldenEntry {
	t.Helper()
	got := map[string]goldenEntry{}
	for _, p := range []int{7, 64} {
		for _, netName := range goldenNets {
			net, _ := netmodel.ByName(netName)
			for _, wd := range []mpi.Watchdog{{}, {Timeout: 0.004, Retries: 12, Backoff: 2}} {
				for _, op := range goldenOps {
					// Dual-CPU nodes at p=64 exercise the same-node paths
					// and the interrupt-CPU contention multiplier.
					cfg := cluster.Config{Nodes: p, CPUsPerNode: 1, Net: net, Seed: 5}
					if p == 64 {
						cfg.Nodes, cfg.CPUsPerNode = 32, 2
					}
					op := op
					key := fmt.Sprintf("%s/p%d/%s/wd=%v", op.name, p, netName, wd.Enabled())
					e, err := goldenRun(cfg, mpi.Options{Watchdog: wd}, func(r *mpi.Rank) {
						r.Compute(0.0007 * float64((r.ID*5)%7))
						op.fn(r, net)
					})
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					got[key] = e
				}
			}
		}
	}

	// Failure paths: they must still surface the same typed error at the
	// same virtual instant.
	wd := mpi.Watchdog{Timeout: 0.05, Retries: 1, Backoff: 2}
	net := netmodel.TCPGigE()
	cfg := cluster.Config{Nodes: 8, CPUsPerNode: 1, Net: net, Seed: 5}

	inj := injector(t, "crash@0.02,rank=3;flap@0.005,node=5,dur=0.004,count=3,period=0.01;link@0.01:0.03,node=1,bw=4,lat=2;straggler@0:0.05,node=6,slow=3")
	e, err := goldenRun(cfg, mpi.Options{Watchdog: wd, Faults: inj}, func(r *mpi.Rank) {
		blocks := make([]int, r.Size())
		for i := range blocks {
			blocks[i] = net.EagerLimit/2 + 9000*i // mixes eager and rendezvous
		}
		for i := 0; i < 50; i++ {
			r.Compute(0.001)
			r.AllgathervRing(blocks)
		}
	})
	var ce *mpi.CrashError
	if !errors.Is(err, mpi.ErrCrashed) || !errors.As(err, &ce) || ce.Rank != 3 {
		t.Fatalf("crash case: want ErrCrashed on rank 3, got %v", err)
	}
	got["crash_watchdog/p8/tcp"] = e

	// A rendezvous Isend nobody receives: the helper abandons the transfer
	// and the sender's Wait reports it.
	e, err = goldenRun(cfg, mpi.Options{Watchdog: wd}, func(r *mpi.Rank) {
		if r.ID == 0 {
			req := r.Isend(1, 9, net.EagerLimit+1)
			r.Compute(0.01) // the helper's budget runs out before the waiter's
			r.Wait(req)
		}
	})
	var te *mpi.TimeoutError
	if !errors.Is(err, mpi.ErrTimeout) || !errors.As(err, &te) || te.Op != "send-rendezvous" {
		t.Fatalf("abandoned isend: want send-rendezvous ErrTimeout, got %v", err)
	}
	got["abandoned_isend/p8/tcp"] = e

	// A blocking rendezvous Send nobody receives: the rank's own transfer
	// gives up and the sender reports it.
	e, err = goldenRun(cfg, mpi.Options{Watchdog: wd}, func(r *mpi.Rank) {
		r.Compute(0.0007 * float64(r.ID))
		if r.ID == 0 {
			r.Send(1, 9, net.EagerLimit+1)
		}
	})
	if !errors.As(err, &te) || te.Op != "send-rendezvous" || te.Rank != 0 {
		t.Fatalf("lost rendezvous send: want send-rendezvous ErrTimeout on rank 0, got %v", err)
	}
	got["send_rendezvous_timeout/p8/tcp"] = e

	// A crash that lands inside a Reduce merge: the rank is computing, not
	// parked, so the crash takes effect at the merge's end.
	e, err = goldenRun(cfg, mpi.Options{Watchdog: wd, Faults: injector(t, "crash@0.003,rank=0")}, func(r *mpi.Rank) {
		for i := 0; i < 3; i++ {
			r.Allreduce(4096, 0.004)
		}
	})
	if !errors.As(err, &ce) || ce.Rank != 0 || ce.At <= 0.003 {
		t.Fatalf("crash in reduce: want ErrCrashed on rank 0 after t=0.003, got %v", err)
	}
	got["crash_in_reduce/p8/tcp"] = e

	// The domain path's failure mode: a crash during repeated sparse
	// exchanges and allreduces at p=64, found by the survivors' watchdogs.
	cfg64 := cluster.Config{Nodes: 32, CPUsPerNode: 2, Net: net, Seed: 5}
	e, err = goldenRun(cfg64, mpi.Options{Watchdog: wd, Faults: injector(t, "crash@0.01,rank=17")}, func(r *mpi.Rank) {
		p := r.Size()
		sizes := make([][]int, p)
		for i := range sizes {
			sizes[i] = make([]int, p)
			sizes[i][(i+1)%p] = 2000 + 13*i
			sizes[i][(i+p-1)%p] = 1500
			sizes[i][(i+8)%p] = 400
		}
		sizes[5][6] = net.EagerLimit + 1000
		for i := 0; i < 30; i++ {
			r.Compute(0.0005)
			r.AlltoallvSparse(sizes)
			r.Allreduce(4096, 1e-5)
		}
	})
	if !errors.Is(err, mpi.ErrCrashed) || !errors.As(err, &ce) || ce.Rank != 17 {
		t.Fatalf("crash in sparse exchange: want ErrCrashed on rank 17, got %v", err)
	}
	got["crash_sparse/p64/tcp"] = e

	// Without a watchdog the same lost rendezvous is a simulation deadlock,
	// and the report names the parked helper process. (End times are left
	// out: a deadlocked rank never reaches the end of its function.)
	accts, err := mpi.Run(cfg, cluster.PentiumIII1GHz(), func(r *mpi.Rank) {
		switch r.ID {
		case 0:
			r.Wait(r.Isend(1, 9, net.EagerLimit+1))
		case 2:
			r.Recv(3, 9)
		}
	})
	if err == nil {
		t.Fatal("lost rendezvous without a watchdog did not deadlock")
	}
	got["deadlock_isend/p8/tcp"] = summarize(make([]float64, len(accts)), accts, err)
	return got
}

// injector builds the fault model of a DSL spec.
func injector(t *testing.T, spec string) *fault.Injector {
	t.Helper()
	sc, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(sc, fault.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func TestScheduleGolden(t *testing.T) {
	got := computeGolden(t)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(got), goldenPath)
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: pinned case no longer computed", k)
			continue
		}
		if g != want[k] {
			t.Errorf("%s: virtual schedule moved\n got  %+v\n want %+v", k, g, want[k])
		}
	}
	if len(got) != len(want) {
		t.Errorf("computed %d cases, golden pins %d", len(got), len(want))
	}
}
