package md

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/vec"
)

// tinyCheckpoint builds a fixed 4-atom, 2-rank checkpoint with
// hand-picked values (no RNG, no engine) for format-level tests.
func tinyCheckpoint() (*Checkpoint, DurableMeta) {
	cp := &Checkpoint{N: 4, TimestepFS: 1.5}
	for i := 0; i < 4; i++ {
		f := float64(i)
		cp.Pos = append(cp.Pos, vec.New(f, f+0.25, f+0.5))
		cp.Vel = append(cp.Vel, vec.New(-f, 0.125*f, 2*f))
		cp.Frc = append(cp.Frc, vec.New(f*f, -0.5, f/3))
		cp.ListOrigin = append(cp.ListOrigin, vec.New(f, f+0.2, f+0.4))
	}
	meta := DurableMeta{
		Step: 42,
		Wall: 12.75,
		RankAcct: [][4]float64{
			{1, 2, 3, 0.5},
			{1.25, 1.75, 3.5, 0},
		},
	}
	return cp, meta
}

func TestDurableRoundTrip(t *testing.T) {
	ring := &CheckpointRing{Dir: t.TempDir()}
	cp, meta := tinyCheckpoint()
	if err := ring.Save(cp, meta); err != nil {
		t.Fatal(err)
	}
	got, gotMeta, err := ReadDurable(ring.Path(meta.Step))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Errorf("checkpoint changed across the round trip:\ngot  %+v\nwant %+v", got, cp)
	}
	if !reflect.DeepEqual(gotMeta, meta) {
		t.Errorf("meta changed across the round trip: got %+v want %+v", gotMeta, meta)
	}

	// Without a list origin the optional section is simply absent.
	cp2 := *cp
	cp2.ListOrigin = nil
	meta2 := meta
	meta2.Step++
	if err := ring.Save(&cp2, meta2); err != nil {
		t.Fatal(err)
	}
	got2, _, err := ReadDurable(ring.Path(meta2.Step))
	if err != nil {
		t.Fatal(err)
	}
	if got2.ListOrigin != nil {
		t.Errorf("origin-free checkpoint read back with origin %v", got2.ListOrigin)
	}
}

// TestDurableGoldenFile pins the on-disk encoding byte for byte. If this
// fails because the format deliberately changed, bump durableVersion,
// regenerate with -update-golden, and teach ReadDurable the old version.
func TestDurableGoldenFile(t *testing.T) {
	cp, meta := tinyCheckpoint()
	enc := encodeDurable(nil, cp, meta)
	golden := filepath.Join("testdata", "golden.mdc")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("encoding diverged from golden file (len %d vs %d) — format change without a version bump?",
			len(enc), len(want))
	}
	gcp, gmeta, err := ReadDurable(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gcp, cp) || !reflect.DeepEqual(gmeta, meta) {
		t.Error("golden file decodes to different state")
	}
}

// durableEnvelope wraps a header payload in a valid envelope: magic,
// version, length and the payload's CRC-32C.
func durableEnvelope(header []byte) []byte {
	var w leWriter
	w.buf = append(w.buf, durableMagic...)
	w.u32(durableVersion)
	w.u32(uint32(len(header)))
	w.buf = append(w.buf, header...)
	w.u32(crc32.Checksum(header, crcTable))
	return w.buf
}

// hugeClaimHeader is a 96-byte checkpoint whose valid header claims 2^35
// atoms and one rank, with no section bytes behind it.
func hugeClaimHeader() []byte {
	var h leWriter
	h.i64(1 << 35) // N
	h.f64(1)       // timestep
	h.i64(0)       // step
	h.f64(0)       // wall
	h.i64(1)       // ranks
	for i := 0; i < 4; i++ {
		h.f64(0)
	}
	h.i64(0) // origin count
	return durableEnvelope(h.buf)
}

func TestDurableDetectsCorruption(t *testing.T) {
	ring := &CheckpointRing{Dir: t.TempDir()}
	cp, meta := tinyCheckpoint()
	if err := ring.Save(cp, meta); err != nil {
		t.Fatal(err)
	}
	path := ring.Path(meta.Step)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		reason string // exact CorruptError.Reason; "" = any
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, "bad magic"},
		{"wrong version", func(b []byte) []byte { b[4] = 2; return b }, "unsupported version 2"},
		{"4-byte file", func(b []byte) []byte { return b[:4] }, "truncated header"},
		{"7-byte file", func(b []byte) []byte { return b[:7] }, "truncated header"},
		{"header bit flip", func(b []byte) []byte { b[16] ^= 0x01; return b }, ""},
		{"section bit flip", func(b []byte) []byte { b[len(b)/2] ^= 0x80; return b }, ""},
		{"origin bit flip", func(b []byte) []byte { b[len(b)-8] ^= 0x01; return b }, ""},
		{"truncated", func(b []byte) []byte { return b[:len(b)-13] }, ""},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xAB) }, ""},
		{"empty", func(b []byte) []byte { return nil }, ""},
		{"huge atom count", func([]byte) []byte { return hugeClaimHeader() }, "sections need 2473901162500 bytes, 0 remain"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.mutate(append([]byte(nil), pristine...))
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := ReadDurable(path)
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("want CorruptError, got %v", err)
			}
			if tc.reason != "" && ce.Reason != tc.reason {
				t.Fatalf("reason %q, want %q", ce.Reason, tc.reason)
			}
		})
	}
}

// FuzzReadDurable feeds ReadDurable a valid envelope around a mutated
// header, then arbitrary section bytes, so mutations reach the atom, rank
// and origin counts instead of failing at the header checksum. Whatever
// the counts claim, the reader returns: a *CorruptError, or a checkpoint
// that re-encodes to exactly the bytes read, both fresh and as saved by a
// ring whose buffer already holds a larger checkpoint.
func FuzzReadDurable(f *testing.F) {
	cp, meta := tinyCheckpoint()
	enc := encodeDurable(nil, cp, meta)
	hlen := int(binary.LittleEndian.Uint32(enc[8:12]))
	f.Add(enc[12:12+hlen], enc[12+hlen+4:])
	path := filepath.Join(f.TempDir(), "f.mdc")
	f.Fuzz(func(t *testing.T, header, body []byte) {
		data := append(durableEnvelope(header), body...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, meta, err := ReadDurable(path)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("want CorruptError, got %v", err)
			}
			return
		}
		if !bytes.Equal(encodeDurable(nil, cp, meta), data) {
			t.Fatal("accepted checkpoint does not re-encode to the bytes read")
		}
		ring := &CheckpointRing{Dir: t.TempDir()}
		big, bigMeta := ringCheckpoint(cp.N+1, len(meta.RankAcct), true)
		bigMeta.Step = meta.Step
		if err := ring.Save(big, bigMeta); err != nil {
			t.Fatal(err)
		}
		if err := ring.Save(cp, meta); err != nil {
			t.Fatal(err)
		}
		if saved, err := os.ReadFile(ring.Path(meta.Step)); err != nil || !bytes.Equal(saved, data) {
			t.Fatalf("accepted checkpoint saved over a larger one does not re-encode to the bytes read (err %v)", err)
		}
	})
}

func TestDurableLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	cp, meta := tinyCheckpoint()
	if err := (&CheckpointRing{Dir: dir}).Save(cp, meta); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Errorf("want exactly the checkpoint file, got %d entries", len(entries))
	}
}

// ringCheckpoint builds an n-atom checkpoint over the given ranks with
// values distinct per atom and, when origin is set, a list origin.
func ringCheckpoint(n, ranks int, origin bool) (*Checkpoint, DurableMeta) {
	cp := &Checkpoint{N: n, TimestepFS: 0.5 + float64(n)}
	for i := 0; i < n; i++ {
		f := float64(i + n)
		cp.Pos = append(cp.Pos, vec.New(f, -f, f/7))
		cp.Vel = append(cp.Vel, vec.New(f/3, f*f, -0.5))
		cp.Frc = append(cp.Frc, vec.New(-f, f/11, 2))
		if origin {
			cp.ListOrigin = append(cp.ListOrigin, vec.New(f+0.1, f, -f))
		}
	}
	meta := DurableMeta{Step: n, Wall: float64(n) / 3, RankAcct: make([][4]float64, ranks)}
	for r := range meta.RankAcct {
		meta.RankAcct[r] = [4]float64{float64(r), 0.5, float64(n), 0.25}
	}
	return cp, meta
}

// TestRingWritesFreshBytesFromOneBuffer holds a ring that encodes every
// record over one buffer to what a fresh encoder writes: checkpoints that
// shrink and grow, with and without a list origin, between progress marks
// leave no stale tail. A warm Save of an unchanged size allocates only
// the file-system calls' small change, not the checkpoint's bytes.
func TestRingWritesFreshBytesFromOneBuffer(t *testing.T) {
	ring := &CheckpointRing{Dir: t.TempDir(), Keep: 10}
	crashes := []int{2, 0, 5}
	for i, c := range []struct {
		n, ranks int
		origin   bool
	}{{7, 3, true}, {4, 2, false}, {2, 1, true}, {7, 3, false}, {4, 2, true}, {2, 1, false}, {7, 3, true}} {
		cp, meta := ringCheckpoint(c.n, c.ranks, c.origin)
		meta.Step = i
		if err := ring.Save(cp, meta); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(ring.Path(i))
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeDurable(nil, cp, meta); !bytes.Equal(got, want) {
			t.Errorf("save %d (N=%d, %d ranks, origin %v): %d bytes differ from a fresh encoding's %d",
				i, c.n, c.ranks, c.origin, len(got), len(want))
		}
		p := Progress{Step: i, Wall: meta.Wall, RankAcct: meta.RankAcct, ConsumedCrashes: crashes[:i%3+1]}
		if err := ring.MarkProgress(p); err != nil {
			t.Fatal(err)
		}
		if back, err := ring.ReadProgress(); err != nil || !reflect.DeepEqual(back, p) {
			t.Errorf("progress %d reads back as %+v (err %v), want %+v", i, back, err, p)
		}
	}

	cp, meta := ringCheckpoint(1000, 4, true)
	size := len(encodeDurable(nil, cp, meta))
	if err := ring.Save(cp, meta); err != nil {
		t.Fatal(err)
	}
	const saves = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < saves; i++ {
		meta.Step++
		if err := ring.Save(cp, meta); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / saves; per*4 >= uint64(size) {
		t.Errorf("a warm Save of a %d-byte checkpoint allocates %d bytes, want < a quarter of it", size, per)
	}
}

// TestSaveRejectsInconsistentCheckpoints: a checkpoint whose arrays do not
// match its N, or meta without a rank, is refused before any byte lands.
func TestSaveRejectsInconsistentCheckpoints(t *testing.T) {
	ring := &CheckpointRing{Dir: t.TempDir()}
	for name, mutate := range map[string]func(*Checkpoint, *DurableMeta){
		"no ranks":       func(_ *Checkpoint, m *DurableMeta) { m.RankAcct = nil },
		"short velocity": func(cp *Checkpoint, _ *DurableMeta) { cp.Vel = cp.Vel[:3] },
		"short origin":   func(cp *Checkpoint, _ *DurableMeta) { cp.ListOrigin = cp.ListOrigin[:1] },
	} {
		cp, meta := tinyCheckpoint()
		mutate(cp, &meta)
		if err := ring.Save(cp, meta); err == nil {
			t.Errorf("%s: Save accepted the checkpoint", name)
		}
	}
	if steps, err := ring.steps(); err != nil || len(steps) != 0 {
		t.Errorf("refused saves left checkpoints %v (err %v)", steps, err)
	}
}

func TestRingFallsBackPastCorruption(t *testing.T) {
	ring := &CheckpointRing{Dir: filepath.Join(t.TempDir(), "ring")}
	cp, meta := tinyCheckpoint()
	for _, step := range []int{10, 20, 30} {
		m := meta
		m.Step = step
		if err := ring.Save(cp, m); err != nil {
			t.Fatal(err)
		}
	}

	// A write killed before its rename leaves a temp file holding a
	// prefix of the next checkpoint; loading removes it unread.
	debris := filepath.Join(ring.Dir, ".tmp-"+filepath.Base(ring.Path(40))+"-1234")
	if err := os.WriteFile(debris, []byte(durableMagic), 0o644); err != nil {
		t.Fatal(err)
	}

	// Newest valid wins when everything is intact.
	_, m, skipped, err := ring.LoadNewest()
	if err != nil || m.Step != 30 || skipped != 0 {
		t.Fatalf("intact ring: step %d skipped %d err %v", m.Step, skipped, err)
	}
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatalf("crash debris survived LoadNewest: %v", err)
	}

	// A bit flip in the newest file costs one checkpoint, not the run.
	buf, err := os.ReadFile(ring.Path(30))
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x01
	if err := os.WriteFile(ring.Path(30), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, m, skipped, err = ring.LoadNewest()
	if err != nil || m.Step != 20 || skipped != 1 {
		t.Fatalf("corrupt newest: step %d skipped %d err %v", m.Step, skipped, err)
	}

	// Nothing valid at all is ErrNoCheckpoint.
	for _, step := range []int{10, 20} {
		if err := os.Truncate(ring.Path(step), 3); err != nil {
			t.Fatal(err)
		}
	}
	_, _, skipped, err = ring.LoadNewest()
	if !errors.Is(err, ErrNoCheckpoint) || skipped != 3 {
		t.Fatalf("all corrupt: skipped %d err %v", skipped, err)
	}

	// An absent directory is also just "no checkpoint".
	empty := &CheckpointRing{Dir: filepath.Join(t.TempDir(), "never-created")}
	if _, _, _, err := empty.LoadNewest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("absent dir: want ErrNoCheckpoint, got %v", err)
	}
}

func TestRingPrunesToKeep(t *testing.T) {
	ring := &CheckpointRing{Dir: filepath.Join(t.TempDir(), "ring"), Keep: 2}
	cp, meta := tinyCheckpoint()
	for _, step := range []int{1, 2, 3, 4} {
		m := meta
		m.Step = step
		if err := ring.Save(cp, m); err != nil {
			t.Fatal(err)
		}
	}
	steps, err := ring.steps()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(steps, []int{3, 4}) {
		t.Errorf("ring holds %v, want [3 4]", steps)
	}
}

func TestProgressRoundTrip(t *testing.T) {
	ring := &CheckpointRing{Dir: filepath.Join(t.TempDir(), "ring")}
	p := Progress{
		Step:            17,
		Wall:            3.25,
		RankAcct:        [][4]float64{{1, 0.5, 0.25, 0}, {2, 1, 0.5, 0.125}},
		ConsumedCrashes: []int{0, 3},
	}
	if err := ring.MarkProgress(p); err != nil {
		t.Fatal(err)
	}
	got, err := ring.ReadProgress()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("progress changed across the round trip: got %+v want %+v", got, p)
	}

	// Any damage degrades to ErrNoProgress, never a bad restart.
	path := filepath.Join(ring.Dir, "progress.mdp")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-2] ^= 0x10
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ring.ReadProgress(); !errors.Is(err, ErrNoProgress) {
		t.Fatalf("corrupt progress: want ErrNoProgress, got %v", err)
	}
	missing := &CheckpointRing{Dir: t.TempDir()}
	if _, err := missing.ReadProgress(); !errors.Is(err, ErrNoProgress) {
		t.Fatalf("missing progress: want ErrNoProgress, got %v", err)
	}
}

// TestProgressGoldenFile pins the progress mark's encoding byte for byte,
// as TestDurableGoldenFile pins the checkpoint's, and holds ReadProgress to
// the pinned bytes.
func TestProgressGoldenFile(t *testing.T) {
	p := Progress{
		Step:            9,
		Wall:            0.3125 + 1e-9,
		RankAcct:        [][4]float64{{0.5, 0.25, 0.125, 0}, {0.75, 0.1, 0.05, 0.2}},
		ConsumedCrashes: []int{1, 4},
	}
	ring := &CheckpointRing{Dir: t.TempDir()}
	if err := ring.MarkProgress(p); err != nil {
		t.Fatal(err)
	}
	enc, err := os.ReadFile(ring.progressPath())
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden.mdp")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("progress encoding diverged from golden file (len %d vs %d) — format change without a version bump?",
			len(enc), len(want))
	}
	if err := os.WriteFile(ring.progressPath(), want, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ring.ReadProgress()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("golden progress decodes to %+v, want %+v", got, p)
	}
}

// TestRestartBitwiseIdentical is the sequential restart-equivalence
// property the whole durable layer exists for: run A steps 1..m, durably
// checkpoint at k, restore into a fresh engine, and steps k+1..m must be
// bitwise identical — including across a Verlet-list rebuild boundary,
// which is why the checkpoint carries the list origin.
func TestRestartBitwiseIdentical(t *testing.T) {
	const k, m = 3, 8
	mk := func() *Engine {
		sys := waterBox(27, 12, 7)
		cfg := smallCutoffs(DefaultConfig())
		cfg.Temperature = 250
		cfg.Seed = 7
		return NewEngine(sys, cfg)
	}
	ref := mk()
	ref.ComputeForces(nil, nil)
	var refEnergies []EnergyReport
	var cp *Checkpoint
	dir := t.TempDir()
	ring := &CheckpointRing{Dir: dir}
	for s := 1; s <= m; s++ {
		refEnergies = append(refEnergies, ref.Step(nil, nil))
		if s == k {
			meta := DurableMeta{Step: s, RankAcct: make([][4]float64, 1)}
			if err := ring.Save(ref.Snapshot(), meta); err != nil {
				t.Fatal(err)
			}
		}
	}

	resumed := mk()
	var meta DurableMeta
	var err error
	cp, meta, _, err = ring.LoadNewest()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Step != k {
		t.Fatalf("resumed at step %d, want %d", meta.Step, k)
	}
	if cp.ListOrigin == nil {
		t.Fatal("checkpoint carries no list origin — restart cannot be bitwise")
	}
	if err := resumed.Restore(cp); err != nil {
		t.Fatal(err)
	}
	for s := k + 1; s <= m; s++ {
		rep := resumed.Step(nil, nil)
		if rep != refEnergies[s-1] {
			t.Fatalf("step %d: resumed energies differ from reference\ngot  %+v\nwant %+v",
				s, rep, refEnergies[s-1])
		}
	}
	for i, p := range ref.Pos {
		if resumed.Pos[i] != p {
			t.Fatalf("atom %d: final position differs after restart", i)
		}
	}
}
