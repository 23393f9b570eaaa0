// Package fastobs is a miniature instrument package for the fastpath
// golden test: a Registry handing out Counters by name, whose nil
// pointer is the disabled fast path.
package fastobs

// Counter is a nil-safe no-op instrument.
type Counter struct {
	n int64
}

// Inc starts with the guard: the nil Counter is the disabled fast path.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.n++
}

// Registry hands out instruments by name.
type Registry struct {
	counters map[string]*Counter
}

// Counter resolves (or creates) the named instrument, nil-guarded.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}
