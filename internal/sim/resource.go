package sim

import "fmt"

// Resource is an FCFS server pool with fixed capacity. Processes acquire a
// unit, hold it across virtual time, and release it; waiters are served in
// request order (deterministic).
type Resource struct {
	env      *Env
	name     string
	capacity int
	inUse    int
	waiters  []*Proc
}

// NewResource creates a resource with the given capacity (≥ 1).
func NewResource(env *Env, name string, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: resource %q capacity %d", name, capacity))
	}
	return &Resource{env: env, name: name, capacity: capacity}
}

// AcquireStep takes one unit if one is free and reports true. Otherwise it
// queues p, parks it and reports false: once p runs again it holds the
// unit, which the releaser transferred before unparking it.
func (r *Resource) AcquireStep(p *Proc) bool {
	if r.inUse < r.capacity {
		r.inUse++
		return true
	}
	r.waiters = append(r.waiters, p)
	p.ParkStep()
	return false
}

// Acquire takes one unit, blocking the caller until one is free. Reference
// form of AcquireStep, see Proc.Park.
func (r *Resource) Acquire(p *Proc) {
	if !r.AcquireStep(p) {
		p.Yield()
	}
}

// Release returns one unit and hands it to the oldest waiter, if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("sim: release of idle resource %q", r.name))
	}
	if len(r.waiters) > 0 {
		next := r.waiters[0]
		r.waiters = r.waiters[1:]
		// Unit stays in use; ownership moves to the waiter.
		r.env.Unpark(next)
		return
	}
	r.inUse--
}
