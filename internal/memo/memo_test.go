package memo

import (
	"sync"
	"sync/atomic"
	"testing"
)

// Concurrent callers of one key get the one value its first caller
// built; each key is built once.
func TestGetBuildsOncePerKey(t *testing.T) {
	var m Map[int, *int]
	var builds atomic.Int32
	const callers, keys = 8, 5
	got := make([][keys]*int, callers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				got[g][k] = m.Get(k, func() *int {
					builds.Add(1)
					return new(int)
				})
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != keys {
		t.Fatalf("%d builds for %d keys", n, keys)
	}
	for g := range got {
		if got[g] != got[0] {
			t.Fatalf("caller %d holds values of its own", g)
		}
	}
}

// A build that panics takes its key with it: every Get of that key
// panics the same way, and other keys are unaffected.
func TestPanickingBuildPanicsEveryGet(t *testing.T) {
	var m Map[string, int]
	get := func(k string) (v int, panicked any) {
		defer func() { panicked = recover() }()
		return m.Get(k, func() int {
			if k == "bad" {
				panic("no")
			}
			return 7
		}), nil
	}
	for range 2 {
		if _, p := get("bad"); p != "no" {
			t.Fatalf("a Get of the panicking key recovered %v", p)
		}
	}
	if v, p := get("good"); v != 7 || p != nil {
		t.Fatalf("another key returned %d and panicked with %v", v, p)
	}
}
