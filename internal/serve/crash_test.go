package serve

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/md"
	"repro/internal/obs"
)

// TestServeCrashPoints enumerates every state of the state directory a
// crash can leave during one run job's life and reopens the server on
// each. The durable mutations come in the order the server makes them:
// the journal write of handleSubmit; per step the checkpoint write, the
// ring prune and the progress write of the attempt; then the tail of
// execute and finish. A crash before a rename leaves the previous state
// plus a temp file holding a prefix of the new one; a crash after it
// leaves the new state. On every state a journaled job finishes without
// being resubmitted, resuming from its newest checkpoint; any other job
// is unknown until resubmitted; both serve the reference bytes; a stored
// result is never recomputed; and the finished server leaves no temp
// file, no journal entry and no checkpoint directory.
func TestServeCrashPoints(t *testing.T) {
	spec := runSpec(4) // four steps: the fourth prunes the three-deep ring
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	key, id := spec.Key(), JobID(spec.Key())
	ref, err := NewEnv().ComputeReference(spec)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}

	// Each state is StateDir's files by path relative to it.
	type crashState struct {
		name  string
		files map[string][]byte
	}
	var states []crashState
	prev := map[string][]byte{}
	mutate := func(name string, next map[string][]byte) {
		if maps.EqualFunc(prev, next, bytes.Equal) {
			return // a prune with nothing to remove
		}
		for path, data := range next {
			if !bytes.Equal(prev[path], data) {
				torn := maps.Clone(prev)
				torn[tempName(path)] = data[:len(data)/2]
				states = append(states, crashState{name + " before the rename", torn})
			}
		}
		states = append(states, crashState{name, next})
		prev = next
	}

	// The journal entry a real submit writes, taken while the worker is held.
	hold, release := blockingFault(KindRun)
	srv, base := testServer(t, func(c *Config) { c.Workers = 1; c.FaultInject = hold })
	if code, _, _ := postJob(t, base, "alice", spec, 0); code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	entry, err := os.ReadFile(srv.jnl.path(id))
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	journalFile := filepath.Join("jobs", id+".json")
	mutate("journal write", map[string][]byte{journalFile: entry})

	// The ring after each step, read where the attempt asks whether to stop.
	stage := t.TempDir()
	writeState(t, stage, prev)
	var rings []map[string][]byte
	payload, profile, _, err := NewEnv().Execute(spec, filepath.Join(stage, "ckpt", id), func() bool {
		rings = append(rings, readState(t, stage))
		return false
	}, nil)
	if err != nil || !bytes.Equal(payload, ref) {
		t.Fatalf("staged run: err %v, bytes equal to the reference %v", err, bytes.Equal(payload, ref))
	}
	ring := md.CheckpointRing{Dir: filepath.Join("ckpt", id)}
	for k, files := range rings {
		next := maps.Clone(prev)
		next[ring.Path(k+1)] = files[ring.Path(k+1)]
		mutate(fmt.Sprintf("step %d checkpoint write", k+1), next)
		next = maps.Clone(next)
		maps.DeleteFunc(next, func(path string, _ []byte) bool { _, kept := files[path]; return !kept })
		mutate(fmt.Sprintf("step %d ring prune", k+1), next)
		mutate(fmt.Sprintf("step %d progress write", k+1), files)
	}

	// The tail mirrors execute's `s.store.Put(profileKey(j.key), profile)`
	// and `s.store.Put(j.key, payload)`, then finish's `s.jnl.remove(j.id)`
	// and `s.cleanupCkpt(j)`.
	store, err := OpenStore(filepath.Join(stage, "store"), 0, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	staged := &Server{cfg: Config{StateDir: stage}, jnl: &journal{dir: filepath.Join(stage, "jobs")}}
	j := newJobState(id, "alice", key, spec, time.Time{})
	for _, m := range []struct {
		name string
		do   func() error
	}{
		{"store Put of the profile", func() error { return store.Put(profileKey(key), profile) }},
		{"store Put of the result", func() error { return store.Put(key, payload) }},
		{"journal remove", func() error { staged.jnl.remove(id); return nil }},
		{"checkpoint-dir removal", func() error { staged.cleanupCkpt(j); return nil }},
	} {
		if err := m.do(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		mutate(m.name, readState(t, stage))
	}

	for _, st := range states {
		t.Run(st.name, func(t *testing.T) {
			dir := t.TempDir()
			writeState(t, dir, st.files)
			_, journaled := st.files[journalFile]
			_, stored := st.files[filepath.Join("store", id)]
			resume := 0 // the newest checkpoint; one that ends the run is wiped
			for k := 1; k <= spec.Steps && !stored; k++ {
				if _, ok := st.files[ring.Path(k)]; ok {
					resume = k % spec.Steps
				}
			}
			_, base := testServer(t, func(c *Config) {
				c.StateDir = dir
				c.FaultInject = func(JobSpec, int) error {
					if stored {
						return Errf(KindInternal, "recomputed a stored result")
					}
					return nil
				}
			})

			if journaled {
				if final := waitStatus(t, base, id, StatusDone, time.Minute); final.ResumeStep != resume {
					t.Errorf("resumed from step %d, want %d", final.ResumeStep, resume)
				}
			} else {
				if _, known := lookupStatus(t, base, id); known {
					t.Fatal("a job without a journal entry is known after the reopen")
				}
				want := http.StatusAccepted
				if stored {
					want = http.StatusOK
				}
				if code, _, _ := postJob(t, base, "alice", spec, 0); code != want {
					t.Fatalf("resubmit = %d, want %d", code, want)
				}
				waitStatus(t, base, id, StatusDone, time.Minute)
			}
			if got := getResult(t, base, id); !bytes.Equal(got, ref) {
				t.Fatalf("served bytes differ from the reference:\n got  %s\n want %s", got, ref)
			}
			for path := range readState(t, dir) {
				if strings.Contains(filepath.Base(path), ".tmp") {
					t.Errorf("temp file %s left behind", path)
				}
			}
			for _, sub := range []string{"jobs", "ckpt"} {
				if left, _ := os.ReadDir(filepath.Join(dir, sub)); len(left) != 0 {
					t.Errorf("%d entries left behind in %s", len(left), sub)
				}
			}
		})
	}
}

// readState returns every file under dir by its path relative to dir.
func readState(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// writeState lays files out under dir.
func writeState(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	for rel, data := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// tempName is the temp file a crash before the rename onto rel leaves,
// named by its writer's os.CreateTemp pattern: the checkpoint ring's
// (Save, MarkProgress), or the journal's and the store's
// (journal.append, Store.Put).
func tempName(rel string) string {
	dir, base := filepath.Split(rel)
	if strings.HasPrefix(rel, "ckpt") {
		return dir + ".tmp-" + base + "-4242"
	}
	return dir + strings.TrimSuffix(base, ".json") + "-4242.tmp"
}

// TestServeLoadContract drives a small server with a concurrent mix of
// three tenants and a bursting fourth through one crash. The queue is
// small, and the burst first fills its queue while both workers are held,
// so admission sheds; the store holds 1 MiB; a 5 ms quantum
// preempts long runs. The load is bounded by accepted submissions: once
// crashAt jobs are accepted the clients stop, the server is aborted, a
// byte flips in each of up to three stored results, and the server
// reopens on the same directory. Every accepted job must then reach done,
// resubmitted where the reopened server no longer knows it, and serve the
// reference bytes. The load must also have exercised the contract: a shed
// carried a positive Retry-After, a run resumed from its checkpoint, an
// event stream's terminal frame carried the reference bytes, and the one
// restart replayed journaled work and caught the flipped bytes.
func TestServeLoadContract(t *testing.T) {
	const crashAt, queueDepth = 24, 4
	dir := t.TempDir()
	hold, release := blockingFault(KindRun)
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	open := func() (*Server, string) {
		cfg := testConfig(dir)
		cfg.StoreMaxBytes = 1 << 20
		cfg.QueueDepth = queueDepth
		cfg.MaxRetries = 2
		cfg.PreemptQuantum = 5 * time.Millisecond
		cfg.FaultInject = hold
		s, err := Open(cfg)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return s, "http://" + s.Addr()
	}
	env := NewEnv()
	var (
		mu                                             sync.Mutex
		accepted                                       = map[string]JobSpec{}
		refs                                           = map[string][]byte{}
		nAccepted, nBurst, sheds, resumed, sseOK, runs atomic.Int32
	)
	reference := func(t *testing.T, id string, spec JobSpec) []byte {
		t.Helper()
		mu.Lock()
		ref, ok := refs[id]
		mu.Unlock()
		if !ok {
			var err error
			if ref, err = env.ComputeReference(spec); err != nil {
				t.Fatalf("reference: %v", err)
			}
			mu.Lock()
			refs[id] = ref
			mu.Unlock()
		}
		return ref
	}
	submit := func(t *testing.T, base, tenant string, spec JobSpec) (string, bool) {
		t.Helper()
		code, jr, hdr := postJob(t, base, tenant, spec, 0)
		switch code {
		case http.StatusAccepted, http.StatusOK:
			mu.Lock()
			accepted[jr.ID] = spec
			mu.Unlock()
			nAccepted.Add(1)
			return jr.ID, true
		case http.StatusTooManyRequests:
			sheds.Add(1)
			if sec, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || sec < 1 {
				t.Errorf("shed with Retry-After %q", hdr.Get("Retry-After"))
			}
			return "", false
		}
		t.Fatalf("submit for %s = %d", tenant, code)
		return "", false
	}
	// follow drives id to done on the server at base and checks its bytes;
	// every third run it meets is followed over the event stream.
	follow := func(t *testing.T, base, id string, spec JobSpec) {
		t.Helper()
		if _, known := lookupStatus(t, base, id); !known {
			// The reopened server forgot a job that finished before the crash.
			if _, ok := submit(t, base, "settle", spec); !ok {
				t.Fatalf("resubmitting %s was shed", id)
			}
		}
		want := reference(t, id, spec)
		if spec.Kind == KindRun && runs.Add(1)%3 == 1 {
			term := checkStepInvariants(t, streamEvents(t, base, id, 0))
			if term.typ != StatusDone || term.data != string(want) {
				t.Fatalf("job %s: terminal %s frame differs from the reference", id, term.typ)
			}
			sseOK.Add(1)
		}
		if waitStatus(t, base, id, StatusDone, 2*time.Minute).ResumeStep > 0 {
			resumed.Add(1)
		}
		if got := getResult(t, base, id); !bytes.Equal(got, want) {
			t.Fatalf("job %s serves bytes that differ from the reference", id)
		}
	}

	s, base := open()
	// The forced shed: a run per worker holds the workers in their first
	// attempt, so nothing drains the burst's queue while it submits one
	// distinct run more than the queue holds.
	for w := 0; w < testConfig(dir).Workers; w++ {
		id, ok := submit(t, base, "hold", runSpec(8+int(nBurst.Add(1))))
		if !ok {
			t.Fatal("a holding run was shed")
		}
		waitStatus(t, base, id, StatusRunning, time.Minute)
	}
	for i := 0; i < queueDepth+1; i++ {
		submit(t, base, "burst", runSpec(8+int(nBurst.Add(1))))
	}
	unblock()

	// Each client is a subtest; t.Run may be called from many goroutines at
	// once, and subtests that do not call t.Parallel escape its -parallel cap.
	var clients sync.WaitGroup
	client := func(name string, body func(t *testing.T)) {
		clients.Add(1)
		go func() {
			defer clients.Done()
			t.Run(name, body)
		}()
	}
	var busy atomic.Int32
	busy.Store(3)
	for c, tenant := range []string{"alice", "bob", "carol"} {
		client(tenant, func(t *testing.T) {
			defer busy.Add(-1)
			for i := c; nAccepted.Load() < crashAt; i += 3 {
				spec := loadSpec(i)
				if id, ok := submit(t, base, tenant, spec); ok {
					follow(t, base, id, spec)
				}
			}
		})
	}
	// Distinct runs far faster than they drain, until the others stop: the
	// crash finds this queue full.
	client("burst", func(t *testing.T) {
		for busy.Load() > 0 {
			if _, ok := submit(t, base, "burst", runSpec(8+int(nBurst.Load()))); ok {
				nBurst.Add(1)
			}
			time.Sleep(time.Millisecond)
		}
	})
	clients.Wait()

	s.Abort()
	flipped := 0
	entries, err := os.ReadDir(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		path := filepath.Join(dir, "store", e.Name())
		buf, err := os.ReadFile(path)
		if err != nil || flipped == 3 || bytes.Contains(buf, []byte(profileKey(""))) {
			continue
		}
		buf[len(buf)/2] ^= 0x10
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		flipped++
	}
	s2, base2 := open()
	t.Cleanup(func() { _ = s2.Close(context.Background()) })

	mu.Lock()
	ids := make([]string, 0, len(accepted))
	for id := range accepted {
		ids = append(ids, id)
	}
	mu.Unlock()
	sort.Strings(ids)
	for _, id := range ids {
		follow(t, base2, id, accepted[id])
	}
	t.Logf("%d accepted jobs, %d sheds, %d resumed, %d streams, %d flipped",
		len(ids), sheds.Load(), resumed.Load(), sseOK.Load(), flipped)
	reg := s2.Registry()
	switch {
	case sheds.Load() == 0:
		t.Error("admission never shed")
	case resumed.Load() == 0:
		t.Error("no run resumed from its checkpoint")
	case sseOK.Load() == 0:
		t.Error("no event stream ended in the reference bytes")
	case reg.Value("repro_serve_replayed_total") == 0:
		t.Error("the restart replayed no journaled job")
	case flipped > 0 && reg.Value("repro_serve_store_corrupt_total") == 0:
		t.Error("no flipped store entry was caught")
	}
}

// loadSpec is a tenant client's i-th job: runs long enough for the
// quantum to preempt, sweeps and analyses, with repeats that coalesce or
// hit the store.
func loadSpec(i int) JobSpec {
	switch i % 5 {
	case 0, 1:
		return runSpec(8 + 8*(i%3))
	case 2:
		s := sweepSpec()
		s.Seed = uint64(1 + i%2)
		return s
	default:
		s := analysisSpec()
		s.Seed = uint64(1 + i%4)
		if i%2 == 0 {
			s.Observable = "msd"
		}
		return s
	}
}
