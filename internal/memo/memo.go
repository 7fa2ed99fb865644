// Package memo shares the read-only tables a process builds once per key.
package memo

import "sync"

// Map hands every caller of one key the same value, built by the first
// caller. Entries are never dropped, so a key must come from a small set
// (mesh lengths, cutoffs, box edges), and a value must not be written once
// built. The zero Map is ready to use and safe for concurrent use.
type Map[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]func() V
}

// Get returns k's value, calling build to make it on the first Get of k.
// The build runs outside the Map's lock, so keys build concurrently; later
// callers of k wait for it, and re-panic if it panicked.
func (m *Map[K, V]) Get(k K, build func() V) V {
	m.mu.Lock()
	get, ok := m.m[k]
	if !ok {
		if m.m == nil {
			m.m = map[K]func() V{}
		}
		get = sync.OnceValue(build)
		m.m[k] = get
	}
	m.mu.Unlock()
	return get()
}
