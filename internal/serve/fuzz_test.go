package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/md"
)

// FuzzJobSpecNormalize feeds arbitrary request bodies through the spec
// gate of POST /v1/jobs: Normalize never panics, rejects with a
// KindBadRequest *JobError, and a spec it accepts is canonical —
// normalising it again changes nothing and its store key is stable — and
// executable: its decomposition tiles the mesh of the box the executor
// builds.
func FuzzJobSpecNormalize(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"run"}`,
		`{"kind":"run","atoms":48,"steps":8,"procs":8,"cpus":2,"net":"myrinet","mw":"cmpi","decomp":"domain"}`,
		`{"kind":"sweep","nets":["tcp","score","tcp"],"procs":6,"cpus":2}`,
		`{"kind":"analysis","observable":"msd","atoms":4096,"steps":512}`,
		`{"kind":"figure","figure":"5","quick":true,"steps":64}`,
		`{"kind":"figure","figure":"1"}`,
		`{"kind":"run","procs":-4,"cpus":0,"atoms":-1,"steps":99999}`,
		`{"kind":"run","procs":3,"cpus":2,"net":"atm","mw":"pvm","decomp":"slab"}`,
		`{"kind":"run","atoms":99,"procs":31}`,
		`{"kind":"sweep","atoms":99,"procs":31,"decomp":"domain"}`,
		`{"kind":""}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		if err := spec.Normalize(); err != nil {
			var je *JobError
			if !errors.As(err, &je) || je.Kind != KindBadRequest {
				t.Fatalf("Normalize rejected %s with %v (%T), want a KindBadRequest *JobError", body, err, err)
			}
			return
		}
		key := spec.Key()
		again := spec
		again.Nets = append([]string(nil), spec.Nets...)
		if err := again.Normalize(); err != nil {
			t.Fatalf("accepted spec %+v is rejected the second time: %v", spec, err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("Normalize is not idempotent: %+v became %+v", spec, again)
		}
		if again.Key() != key || JobID(key) != JobID(again.Key()) {
			t.Fatalf("key moved across re-normalisation: %q then %q", key, again.Key())
		}
		if spec.Kind != KindRun && spec.Kind != KindSweep {
			return
		}
		// The executor's own box (Env.system's), vetoed before the relax.
		var pme md.PMEConfig
		_, _, _ = md.NewSolvatedWorkload(spec.Atoms, spec.Seed+1, func(c md.PMEConfig) error {
			pme = c
			return errVetoRelax
		})
		if _, err := decompFor(spec, md.Config{PME: pme}); err != nil {
			t.Fatalf("accepted spec %+v fails at execution: %v", spec, err)
		}
	})
}

var errVetoRelax = errors.New("skip the relax")

// FuzzStoreDecode feeds arbitrary store files through the validator a
// reopened store trusts: decode either rejects the bytes, or they are
// exactly what encode writes for the key and the payload it returns — so
// a damaged entry is never served.
func FuzzStoreDecode(f *testing.F) {
	const key = `{"kind":"run","atoms":48}`
	good := encode(key, []byte(`{"energies":[1.5,-2]}`))
	flipped := bytes.Clone(good)
	flipped[len(flipped)-6] ^= 1
	f.Add(good, key)
	f.Add(good, key+" ")                     // key mismatch
	f.Add(good[:len(good)-1], key)           // truncated checksum
	f.Add(append(bytes.Clone(good), 0), key) // trailing byte
	f.Add(flipped, key)                      // payload bit flip
	f.Add(encode("", nil), "")
	f.Add([]byte{}, "")
	f.Fuzz(func(t *testing.T, data []byte, key string) {
		payload, err := decode(data, key)
		if err != nil {
			return
		}
		if got := encode(key, payload); !bytes.Equal(got, data) {
			t.Fatalf("decode accepted %x for key %q, but encode writes %x", data, key, got)
		}
	})
}

// FuzzJournalReplay writes one valid entry through journal.append and one
// fuzzed file next to it, then replays the directory: replay never
// panics, every entry it returns re-normalises to its key, ID and file
// name, every file present is returned, skipped or a removed .tmp
// leftover, and the valid entry survives unless the fuzzed file took its
// name.
func FuzzJournalReplay(f *testing.F) {
	spec := JobSpec{Kind: KindRun, Atoms: 48, Steps: 8}
	if err := spec.Normalize(); err != nil {
		f.Fatal(err)
	}
	valid := journalEntry{ID: JobID(spec.Key()), Tenant: "alice", Key: spec.Key(), Spec: spec, Deadline: 60_000}
	good, err := json.Marshal(valid)
	if err != nil {
		f.Fatal(err)
	}
	stale := bytes.Replace(good, []byte(`"atoms":48`), []byte(`"atoms":96`), 1)
	f.Add(valid.ID+".json", good)               // the valid entry, rewritten
	f.Add(valid.ID+".json", good[:len(good)/2]) // torn over the valid entry
	f.Add("other.json", good)                   // a copy under a name that is not its ID
	f.Add(valid.ID+"-123.tmp", good)            // a rename the crash interrupted
	f.Add("stale.json", stale)                  // a spec that no longer matches its key
	f.Add(valid.ID+".json", stale)              // the same, under the valid entry's name
	f.Add("empty.json", []byte{})
	f.Fuzz(func(t *testing.T, name string, data []byte) {
		if name == "" || name == "." || name == ".." || strings.ContainsAny(name, "/\x00") {
			t.Skip("not a file name")
		}
		dir := t.TempDir()
		j, err := openJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.append(valid); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Skipf("the file system refuses %q: %v", name, err)
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		tmps := 0
		for _, fi := range files {
			if strings.HasSuffix(fi.Name(), ".tmp") {
				tmps++
			}
		}

		entries, skipped, err := j.replay()
		if err != nil {
			t.Fatal(err)
		}
		if len(entries)+skipped+tmps != len(files) {
			t.Fatalf("%d files, but %d returned + %d skipped + %d .tmp removed", len(files), len(entries), skipped, tmps)
		}
		survived := false
		for _, e := range entries {
			again := e.Spec
			if again.Normalize() != nil || again.Key() != e.Key || JobID(e.Key) != e.ID {
				t.Fatalf("replay returned %+v, whose spec does not re-normalise to its key and ID", e)
			}
			if _, err := os.Stat(j.path(e.ID)); err != nil {
				t.Fatalf("replay returned %s, which is not the name of a journal file: %v", e.ID, err)
			}
			survived = survived || e.ID == valid.ID
		}
		if !survived && name != valid.ID+".json" {
			t.Fatalf("the valid entry was dropped next to %q", name)
		}
	})
}
