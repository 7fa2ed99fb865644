package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// FuzzJobSpecNormalize feeds arbitrary request bodies through the spec
// gate of POST /v1/jobs: Normalize never panics, rejects with a
// KindBadRequest *JobError, and a spec it accepts is canonical —
// normalising it again changes nothing and its store key is stable.
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
	})
}

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
