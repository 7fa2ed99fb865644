package md

// Durable checkpoints: a versioned, CRC32C-checksummed on-disk format for
// Checkpoint, written atomically (temp file + rename) and managed as a
// ring of the last K checkpoints per run directory. Loading is
// corruption-aware: the ring scans back from the newest file to the
// newest one that still validates, so a torn write or a flipped bit costs
// one checkpoint interval, never the run.
//
// File layout (all little-endian):
//
//	magic    "MDCP" (4 bytes)
//	version  uint32 (currently 1)
//	hlen     uint32 — header payload length in bytes
//	header   int64 N, float64 timestepFS, int64 step, float64 wall,
//	         int64 ranks, then ranks × 4 float64 (comp, comm, sync, lost),
//	         then int64 originCount (0, or N when a list origin follows)
//	hcrc     uint32 — CRC32C (Castagnoli) of the header payload
//	sections ranks × [atoms of rank r's block × 9 float64
//	         (pos, vel, frc), then uint32 CRC32C of the section bytes],
//	         then, when originCount = N, one section of N × 3 float64
//	         (the Verlet-list origin) with its own uint32 CRC32C
//
// The progress mark (progress.mdp) is the same frame — magic "MDPG",
// version, hlen, payload, CRC32C — whose payload is int64 step, float64
// wall, int64 ranks, ranks × 4 float64, int64 crashes, crashes × int64.
//
// The per-rank sections mirror the parallel engine's block partition, so
// a validation failure names the rank whose state is damaged. The list
// origin travels with the checkpoint so a restarted trajectory reuses the
// interrupted run's pair list and stays bitwise identical to it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/vec"
)

const (
	durableMagic   = "MDCP"
	progressMagic  = "MDPG"
	durableVersion = 1
)

// DefaultKeep is the checkpoint-ring depth when CheckpointRing.Keep is 0.
const DefaultKeep = 3

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrNoCheckpoint reports a checkpoint directory holding no loadable
// checkpoint (absent, empty, or nothing but corruption).
var ErrNoCheckpoint = errors.New("md: no checkpoint on disk")

// ErrNoProgress reports an absent or unreadable progress mark.
var ErrNoProgress = errors.New("md: no progress mark on disk")

// CorruptError reports a durable checkpoint or progress file that failed
// validation (bad magic, unsupported version, checksum mismatch,
// truncation). The ring treats it as "skip and fall back one".
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("md: corrupt checkpoint %s: %s", e.Path, e.Reason)
}

// DurableMeta is the run bookkeeping stored alongside the dynamic state:
// where the run was and what each rank had spent getting there. RankAcct
// holds one (comp, comm, sync, lost) quad of virtual seconds per rank and
// its length fixes the section partition; a sequential run uses one rank
// with a zero quad.
type DurableMeta struct {
	Step     int     // global MD step the checkpoint was taken after
	Wall     float64 // virtual wall clock (scenario time) at the checkpoint
	RankAcct [][4]float64
}

// Progress is the tiny per-step journal dropped next to the ring: enough
// for a restarted process to book the killed process's post-checkpoint
// work as Lost and to avoid re-firing already-recovered crash faults.
type Progress struct {
	Step            int
	Wall            float64
	RankAcct        [][4]float64
	ConsumedCrashes []int // fault-spec indices of crashes already recovered
}

type leWriter struct{ buf []byte }

func (w *leWriter) u32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}
func (w *leWriter) i64(v int64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v))
}
func (w *leWriter) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}
func (w *leWriter) vec(v vec.V) { w.f64(v.X); w.f64(v.Y); w.f64(v.Z) }

// frameBytes is what a frame adds to its payload: magic, version, payload
// length and CRC32C, four bytes each.
const frameBytes = 16

// open appends the start of the frame both durable records open with —
// magic, version, payload length — and returns where the payload starts.
// The caller appends the payload, then sum closes the frame.
func (w *leWriter) open(magic string, payloadLen int) int {
	w.buf = append(w.buf, magic...)
	w.u32(durableVersion)
	w.u32(uint32(payloadLen))
	return len(w.buf)
}

// sum appends the CRC32C of the bytes appended since offset from.
func (w *leWriter) sum(from int) { w.u32(crc32.Checksum(w.buf[from:], crcTable)) }

type leReader struct {
	buf []byte
	pos int
	err bool
}

func (r *leReader) take(n int) []byte {
	if r.err || r.pos+n > len(r.buf) {
		r.err = true
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}
func (r *leReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}
func (r *leReader) i64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}
func (r *leReader) f64() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
func (r *leReader) vec() vec.V {
	return vec.V{X: r.f64(), Y: r.f64(), Z: r.f64()}
}

// frame reads what leWriter.open and sum wrote and returns its validated
// payload, or why it has none.
func (r *leReader) frame(magic string) (payload []byte, reason string) {
	if m := r.take(4); m == nil || string(m) != magic {
		return nil, "bad magic"
	}
	if v := r.u32(); r.err {
		return nil, "truncated header"
	} else if v != durableVersion {
		return nil, fmt.Sprintf("unsupported version %d", v)
	}
	payload = r.take(int(r.u32()))
	if payload == nil {
		return nil, "truncated header"
	}
	if got, want := crc32.Checksum(payload, crcTable), r.u32(); r.err || got != want {
		return nil, "header checksum mismatch"
	}
	return payload, ""
}

// encodeDurable serializes cp + meta into the on-disk layout in buf's
// storage: buf grows once to the exact size, every byte is appended in
// place and each CRC32C is taken over the buffer's own sub-slice.
func encodeDurable(buf []byte, cp *Checkpoint, meta DurableMeta) []byte {
	ranks, origin := len(meta.RankAcct), len(cp.ListOrigin)
	hlen := 6*8 + ranks*4*8
	size := frameBytes + hlen + ranks*4 + cp.N*9*8
	if origin > 0 {
		size += origin*3*8 + 4
	}
	w := leWriter{buf: slices.Grow(buf[:0], size)}
	from := w.open(durableMagic, hlen)
	w.i64(int64(cp.N))
	w.f64(cp.TimestepFS)
	w.i64(int64(meta.Step))
	w.f64(meta.Wall)
	w.i64(int64(ranks))
	for _, a := range meta.RankAcct {
		for _, v := range a {
			w.f64(v)
		}
	}
	w.i64(int64(origin))
	w.sum(from)

	off := kernels.Partition(cp.N, ranks, nil)
	for r := 0; r < ranks; r++ {
		from = len(w.buf)
		for i := off[r]; i < off[r+1]; i++ {
			w.vec(cp.Pos[i])
			w.vec(cp.Vel[i])
			w.vec(cp.Frc[i])
		}
		w.sum(from)
	}
	if origin > 0 {
		from = len(w.buf)
		for _, v := range cp.ListOrigin {
			w.vec(v)
		}
		w.sum(from)
	}
	return w.buf
}

// writeDurable checks cp + meta, encodes them into the ring's buffer and
// writes them to path atomically: the bytes land in a temp file in the
// same directory, are synced, and replace path with a rename, so a crash
// mid-write never leaves a half-written checkpoint under the real name.
func (r *CheckpointRing) writeDurable(path string, cp *Checkpoint, meta DurableMeta) error {
	if len(meta.RankAcct) < 1 {
		return fmt.Errorf("md: durable checkpoint needs at least one rank in meta")
	}
	if len(cp.Pos) != cp.N || len(cp.Vel) != cp.N || len(cp.Frc) != cp.N {
		return fmt.Errorf("md: durable checkpoint has inconsistent arrays (%d/%d/%d for N=%d)",
			len(cp.Pos), len(cp.Vel), len(cp.Frc), cp.N)
	}
	if len(cp.ListOrigin) != 0 && len(cp.ListOrigin) != cp.N {
		return fmt.Errorf("md: durable checkpoint list origin has %d atoms for N=%d",
			len(cp.ListOrigin), cp.N)
	}
	r.buf = encodeDurable(r.buf, cp, meta)
	return atomicWrite(path, r.buf)
}

// ReadDurable loads and fully validates a durable checkpoint. Any
// validation failure is a *CorruptError; IO failures come back as-is.
func ReadDurable(path string) (*Checkpoint, DurableMeta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, DurableMeta{}, err
	}
	corrupt := func(reason string) (*Checkpoint, DurableMeta, error) {
		return nil, DurableMeta{}, &CorruptError{Path: path, Reason: reason}
	}

	r := &leReader{buf: data}
	header, reason := r.frame(durableMagic)
	if header == nil {
		return corrupt(reason)
	}

	h := &leReader{buf: header}
	n := int(h.i64())
	ts := h.f64()
	step := int(h.i64())
	wall := h.f64()
	ranks := int(h.i64())
	if h.err || n < 0 || ranks < 1 || ranks > 1<<20 || n > 1<<40 {
		return corrupt("implausible header")
	}
	// Every allocation below is sized by counts the header claims; check
	// first that the file holds the bytes they promise.
	if ranks > (len(header)-h.pos)/32 {
		return corrupt(fmt.Sprintf("%d rank quads overrun the header", ranks))
	}
	meta := DurableMeta{Step: step, Wall: wall, RankAcct: make([][4]float64, ranks)}
	for i := 0; i < ranks; i++ {
		for j := 0; j < 4; j++ {
			meta.RankAcct[i][j] = h.f64()
		}
	}
	originCount := int(h.i64())
	if h.err || (originCount != 0 && originCount != n) {
		return corrupt("implausible list-origin count")
	}
	if h.pos != len(header) {
		return corrupt("header length mismatch")
	}
	need := ranks*4 + n*9*8
	if originCount > 0 {
		need += originCount*3*8 + 4
	}
	if left := len(data) - r.pos; need > left {
		return corrupt(fmt.Sprintf("sections need %d bytes, %d remain", need, left))
	}

	cp := &Checkpoint{
		N:          n,
		TimestepFS: ts,
		Pos:        make([]vec.V, n),
		Vel:        make([]vec.V, n),
		Frc:        make([]vec.V, n),
	}
	off := kernels.Partition(n, ranks, nil)
	for rk := 0; rk < ranks; rk++ {
		atoms := off[rk+1] - off[rk]
		section := r.take(atoms * 9 * 8)
		if section == nil {
			return corrupt(fmt.Sprintf("truncated section for rank %d", rk))
		}
		if got, want := crc32.Checksum(section, crcTable), r.u32(); r.err || got != want {
			return corrupt(fmt.Sprintf("checksum mismatch in rank %d section", rk))
		}
		s := &leReader{buf: section}
		for i := off[rk]; i < off[rk+1]; i++ {
			cp.Pos[i] = s.vec()
			cp.Vel[i] = s.vec()
			cp.Frc[i] = s.vec()
		}
	}
	if originCount > 0 {
		section := r.take(originCount * 3 * 8)
		if section == nil {
			return corrupt("truncated list-origin section")
		}
		if got, want := crc32.Checksum(section, crcTable), r.u32(); r.err || got != want {
			return corrupt("checksum mismatch in list-origin section")
		}
		s := &leReader{buf: section}
		cp.ListOrigin = make([]vec.V, originCount)
		for i := range cp.ListOrigin {
			cp.ListOrigin[i] = s.vec()
		}
	}
	if r.pos != len(data) {
		return corrupt(fmt.Sprintf("%d trailing bytes", len(data)-r.pos))
	}
	return cp, meta, nil
}

// tmpPrefix starts the name of every temp file the ring writes through.
const tmpPrefix = ".tmp-"

// atomicWrite lands data at path; an interrupted write leaves only a
// dot-file the ring's listing ignores and LoadNewest removes.
func atomicWrite(path string, data []byte) error {
	return WriteFileAtomic(path, tmpPrefix+filepath.Base(path)+"-*", data)
}

// WriteFileAtomic is the one durable write of the tree (the checkpoint
// ring, the job server's result store and its journal): the bytes land in
// a temp file next to path (named by the os.CreateTemp pattern tmpPattern,
// by which each caller recognises the debris of a crash mid-write), are
// fsynced, and only then renamed into place, so path never names a
// half-written file. On any failure the temp file is removed.
func WriteFileAtomic(path, tmpPattern string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), tmpPattern)
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// CheckpointRing manages a directory holding the last Keep durable
// checkpoints of one run plus its progress mark. The zero Keep means
// DefaultKeep. Methods are not safe for concurrent use.
type CheckpointRing struct {
	Dir  string
	Keep int

	// Obs, when non-nil, receives host-time durability metrics:
	// repro_checkpoint_write_seconds / repro_checkpoint_restore_seconds
	// histograms, repro_checkpoint_writes_total and
	// repro_checkpoint_corrupt_skipped_total counters.
	Obs *obs.Registry

	// buf holds the encoding of the last Save or MarkProgress; the next
	// one encodes over it, so a ring allocates only to outgrow its largest
	// record.
	buf []byte
}

func (r *CheckpointRing) observe(name, help string, d time.Duration) {
	if r.Obs == nil {
		return
	}
	r.Obs.Histogram(name, help, obs.ExpBuckets(1e-4, 4, 10)).Observe(d.Seconds())
}

func (r *CheckpointRing) keep() int {
	if r.Keep <= 0 {
		return DefaultKeep
	}
	return r.Keep
}

const ckptPrefix, ckptSuffix = "ckpt-", ".mdc"

// Path returns the file name used for the checkpoint at the given step.
func (r *CheckpointRing) Path(step int) string {
	return filepath.Join(r.Dir, fmt.Sprintf("%s%012d%s", ckptPrefix, step, ckptSuffix))
}

func (r *CheckpointRing) progressPath() string {
	return filepath.Join(r.Dir, "progress.mdp")
}

// steps lists the step indices of checkpoint files present, ascending.
func (r *CheckpointRing) steps() ([]int, error) {
	entries, err := os.ReadDir(r.Dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var steps []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		s, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix))
		if err != nil {
			continue
		}
		steps = append(steps, s)
	}
	sort.Ints(steps)
	return steps, nil
}

// Save writes the checkpoint for meta.Step and prunes the ring down to
// the newest Keep files.
func (r *CheckpointRing) Save(cp *Checkpoint, meta DurableMeta) error {
	t0 := time.Now()
	if err := os.MkdirAll(r.Dir, 0o755); err != nil {
		return err
	}
	if err := r.writeDurable(r.Path(meta.Step), cp, meta); err != nil {
		return err
	}
	r.observe("repro_checkpoint_write_seconds", "durable checkpoint write latency (host seconds)", time.Since(t0))
	if r.Obs != nil {
		r.Obs.Counter("repro_checkpoint_writes_total", "durable checkpoints written").Inc()
	}
	steps, err := r.steps()
	if err != nil {
		return err
	}
	for len(steps) > r.keep() {
		if err := os.Remove(r.Path(steps[0])); err != nil && !os.IsNotExist(err) {
			return err
		}
		steps = steps[1:]
	}
	return nil
}

// LoadNewest returns the newest checkpoint in the ring that validates,
// scanning back across corrupt files (skipped counts how many were
// passed over). ErrNoCheckpoint means the directory holds nothing
// loadable at all. A ring has one writer, so a temp file present when it
// loads is the debris of a write a crash interrupted: it is removed first.
func (r *CheckpointRing) LoadNewest() (cp *Checkpoint, meta DurableMeta, skipped int, err error) {
	t0 := time.Now()
	defer func() {
		if err == nil {
			r.observe("repro_checkpoint_restore_seconds", "durable checkpoint restore latency (host seconds)", time.Since(t0))
		}
		if r.Obs != nil && skipped > 0 {
			r.Obs.Counter("repro_checkpoint_corrupt_skipped_total",
				"corrupt or torn checkpoints scanned past during restore").Add(float64(skipped))
		}
	}()
	if entries, err := os.ReadDir(r.Dir); err == nil {
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), tmpPrefix) {
				os.Remove(filepath.Join(r.Dir, e.Name()))
			}
		}
	}
	steps, err := r.steps()
	if err != nil {
		return nil, DurableMeta{}, 0, err
	}
	for i := len(steps) - 1; i >= 0; i-- {
		cp, meta, err = ReadDurable(r.Path(steps[i]))
		if err == nil {
			return cp, meta, skipped, nil
		}
		var ce *CorruptError
		if !errors.As(err, &ce) && !os.IsNotExist(err) {
			return nil, DurableMeta{}, skipped, err
		}
		skipped++
	}
	return nil, DurableMeta{}, skipped, ErrNoCheckpoint
}

// MarkProgress atomically records the per-step journal.
func (r *CheckpointRing) MarkProgress(p Progress) error {
	if err := os.MkdirAll(r.Dir, 0o755); err != nil {
		return err
	}
	plen := 4*8 + len(p.RankAcct)*4*8 + len(p.ConsumedCrashes)*8
	w := leWriter{buf: slices.Grow(r.buf[:0], frameBytes+plen)}
	from := w.open(progressMagic, plen)
	w.i64(int64(p.Step))
	w.f64(p.Wall)
	w.i64(int64(len(p.RankAcct)))
	for _, a := range p.RankAcct {
		for _, v := range a {
			w.f64(v)
		}
	}
	w.i64(int64(len(p.ConsumedCrashes)))
	for _, c := range p.ConsumedCrashes {
		w.i64(int64(c))
	}
	w.sum(from)
	r.buf = w.buf
	return atomicWrite(r.progressPath(), r.buf)
}

// ReadProgress loads the progress mark; a missing or invalid file is
// ErrNoProgress (a stale or torn mark only costs Lost-accounting
// precision, never the restart).
func (r *CheckpointRing) ReadProgress() (Progress, error) {
	data, err := os.ReadFile(r.progressPath())
	if err != nil {
		return Progress{}, ErrNoProgress
	}
	rd := &leReader{buf: data}
	payload, _ := rd.frame(progressMagic)
	if payload == nil {
		return Progress{}, ErrNoProgress
	}
	h := &leReader{buf: payload}
	p := Progress{Step: int(h.i64()), Wall: h.f64()}
	ranks := int(h.i64())
	if h.err || ranks < 0 || ranks > 1<<20 || ranks > (len(payload)-h.pos)/32 {
		return Progress{}, ErrNoProgress
	}
	p.RankAcct = make([][4]float64, ranks)
	for i := 0; i < ranks; i++ {
		for j := 0; j < 4; j++ {
			p.RankAcct[i][j] = h.f64()
		}
	}
	nc := int(h.i64())
	if h.err || nc < 0 || nc > 1<<20 || nc > (len(payload)-h.pos)/8 {
		return Progress{}, ErrNoProgress
	}
	for i := 0; i < nc; i++ {
		p.ConsumedCrashes = append(p.ConsumedCrashes, int(h.i64()))
	}
	if h.err || h.pos != len(payload) {
		return Progress{}, ErrNoProgress
	}
	return p, nil
}
