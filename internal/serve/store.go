package serve

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/md"
	"repro/internal/obs"
)

// Store file format (little-endian), one result per file named by the
// hex SHA-256 of the canonical key:
//
//	[4]byte  magic "MDRS"
//	uint32   format version (storeVersion)
//	uint32   len(key), followed by the canonical key bytes
//	uint64   len(payload), followed by the payload bytes
//	uint32   CRC-32C (Castagnoli) over everything above
//
// Writes are atomic (temp file + fsync + rename, the same discipline as
// the MDCP checkpoint ring); reads validate magic, version, key and CRC
// and treat ANY mismatch as a miss, deleting the damaged file so the
// entry is recomputed. The store can serve stale-but-correct bytes after
// eviction races (a miss), never corrupt ones.
const (
	storeMagic   = "MDRS"
	storeVersion = 1
)

var storeCRC = crc32.MakeTable(crc32.Castagnoli)

// Store is the disk-backed content-addressed result store: bounded in
// bytes with least-recently-used eviction, safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64

	mu   sync.Mutex
	lru  *list.List               // front = most recently used
	idx  map[string]*list.Element // id -> lru entry
	size int64

	hits, misses, corrupt, evictions *obs.Counter
	bytes                            *obs.Gauge
}

// lruEntry is one resident result.
type lruEntry struct {
	id   string
	size int64
}

// OpenStore opens (creating if needed) the store rooted at dir. Leftover
// temp files from writes interrupted mid-rename are removed; resident
// entries are indexed by file size and seeded into the LRU in modification
// order. Entries are NOT validated here — validation is lazy, on Get, so
// opening a large store stays cheap and corruption surfaces exactly where
// it can be healed by recomputation.
func OpenStore(dir string, maxBytes int64, reg *obs.Registry) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		lru:      list.New(),
		idx:      map[string]*list.Element{},
		hits:     reg.Counter("repro_serve_store_hits_total", "result store hits"),
		misses:   reg.Counter("repro_serve_store_misses_total", "result store misses"),
		corrupt:  reg.Counter("repro_serve_store_corrupt_total", "store entries failing validation, deleted"),
		evictions: reg.Counter("repro_serve_store_evictions_total",
			"store entries evicted by the size bound"),
		bytes: reg.Gauge("repro_serve_store_bytes", "resident result store bytes"),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	type seed struct {
		id    string
		size  int64
		mtime int64
	}
	var seeds []seed
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), ".tmp") {
			_ = os.Remove(filepath.Join(dir, e.Name())) // rename never happened
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		seeds = append(seeds, seed{id: e.Name(), size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i].mtime < seeds[j].mtime })
	for _, sd := range seeds {
		s.idx[sd.id] = s.lru.PushFront(&lruEntry{id: sd.id, size: sd.size})
		s.size += sd.size
	}
	s.evict()
	s.bytes.Set(float64(s.size))
	return s, nil
}

func (s *Store) path(id string) string { return filepath.Join(s.dir, id) }

// encode renders the store file for (key, payload).
func encode(key string, payload []byte) []byte {
	buf := make([]byte, 0, 4+4+4+len(key)+8+len(payload)+4)
	buf = append(buf, storeMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, storeVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, storeCRC))
}

// decode validates a store file and returns its payload; any deviation
// from the format — wrong magic or version, truncation, trailing bytes,
// key mismatch, checksum mismatch — is an error.
func decode(buf []byte, wantKey string) ([]byte, error) {
	if len(buf) < 4+4+4+8+4 {
		return nil, fmt.Errorf("truncated header (%d bytes)", len(buf))
	}
	if string(buf[:4]) != storeMagic {
		return nil, fmt.Errorf("bad magic %q", buf[:4])
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != storeVersion {
		return nil, fmt.Errorf("version %d, want %d", v, storeVersion)
	}
	keyLen := int(binary.LittleEndian.Uint32(buf[8:]))
	if len(buf) < 12+keyLen+8+4 {
		return nil, fmt.Errorf("truncated key (%d bytes for key of %d)", len(buf), keyLen)
	}
	key := string(buf[12 : 12+keyLen])
	if key != wantKey {
		return nil, fmt.Errorf("key mismatch: file holds %q", key)
	}
	off := 12 + keyLen
	payLen := int(binary.LittleEndian.Uint64(buf[off:]))
	off += 8
	if len(buf) != off+payLen+4 {
		return nil, fmt.Errorf("length mismatch: %d bytes, want %d", len(buf), off+payLen+4)
	}
	sum := binary.LittleEndian.Uint32(buf[off+payLen:])
	if got := crc32.Checksum(buf[:off+payLen], storeCRC); got != sum {
		return nil, fmt.Errorf("checksum mismatch: %08x, file says %08x", got, sum)
	}
	return buf[off : off+payLen], nil
}

// Get returns the stored payload for key, or (nil, false) on a miss. A
// resident entry that fails validation is deleted and reported as a miss:
// the caller recomputes, and the recomputation is deterministic, so a
// damaged store can lose work but never serve wrong results.
func (s *Store) Get(key string) ([]byte, bool) {
	id := JobID(key)
	buf, err := os.ReadFile(s.path(id))
	if err != nil {
		s.misses.Add(1)
		s.forget(id)
		return nil, false
	}
	payload, err := decode(buf, key)
	if err != nil {
		// Damaged or foreign: remove so the slot heals by recomputation.
		_ = os.Remove(s.path(id))
		s.forget(id)
		s.corrupt.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	s.mu.Lock()
	if el, ok := s.idx[id]; ok {
		s.lru.MoveToFront(el)
	} else {
		// Present on disk but unindexed (written by a prior process whose
		// index died with it): adopt.
		s.idx[id] = s.lru.PushFront(&lruEntry{id: id, size: int64(len(buf))})
		s.size += int64(len(buf))
		s.evict()
		s.bytes.Set(float64(s.size))
	}
	s.mu.Unlock()
	s.hits.Add(1)
	return payload, true
}

// Put stores payload under key atomically: the bytes land in a temp file,
// are fsynced, and only then renamed into place — a crash mid-Put leaves
// either the complete old entry or debris that OpenStore removes, never a
// half-written file under the real name.
func (s *Store) Put(key string, payload []byte) error {
	id := JobID(key)
	buf := encode(key, payload)

	if err := md.WriteFileAtomic(s.path(id), id+"-*.tmp", buf); err != nil {
		return Errf(KindTransient, "store put: %v", err)
	}

	s.mu.Lock()
	if el, ok := s.idx[id]; ok {
		s.size -= el.Value.(*lruEntry).size
		s.lru.Remove(el)
	}
	s.idx[id] = s.lru.PushFront(&lruEntry{id: id, size: int64(len(buf))})
	s.size += int64(len(buf))
	s.evict()
	s.bytes.Set(float64(s.size))
	s.mu.Unlock()
	return nil
}

// forget drops id from the index (its file is already gone).
func (s *Store) forget(id string) {
	s.mu.Lock()
	if el, ok := s.idx[id]; ok {
		s.size -= el.Value.(*lruEntry).size
		s.lru.Remove(el)
		delete(s.idx, id)
		s.bytes.Set(float64(s.size))
	}
	s.mu.Unlock()
}

// evict removes least-recently-used entries until the store fits its
// bound. Caller holds s.mu. A Get racing the eviction of its entry sees a
// plain miss (the file read fails) and recomputes — correctness never
// depends on residency.
func (s *Store) evict() {
	if s.maxBytes <= 0 {
		return
	}
	for s.size > s.maxBytes && s.lru.Len() > 1 {
		el := s.lru.Back()
		e := el.Value.(*lruEntry)
		_ = os.Remove(s.path(e.id))
		s.lru.Remove(el)
		delete(s.idx, e.id)
		s.size -= e.size
		s.evictions.Add(1)
	}
	s.bytes.Set(float64(s.size))
}

// Len reports resident entries (tests and /statz).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Bytes reports resident bytes (tests and /statz).
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}
