// Package hotkern is the hotpath golden fixture: Step is configured as
// a hot root (and the config deliberately names a function that no
// longer exists, to exercise the stale-config diagnostic), so every
// allocation-inducing construct reachable from Step is flagged, while
// the same constructs in unreachable code pass.
package hotkern // want `hotpath config names fix/hotkern.Missing, which does not resolve`

// Kernel is the fixture's hot kernel.
type Kernel struct {
	buf     []int
	scratch [4]int
	name    string
	words   []uint32
}

type point struct{ x, y int }

// Step is the configured hot root.
func (k *Kernel) Step(x int) {
	k.buf = append(k.buf, x) // want `append may grow and allocate on the hot path of hotkern...Kernel..Step`
	k.helper(x)
	k.label("tick")
	k.grow(nil)
	k.scratch[0] = len(pad[int](k.buf, x))
	k.words = growWords[uint32](k.words, x)
}

// helper is one edge from Step: flagged transitively, with every
// finding naming the root it serves.
func (k *Kernel) helper(x int) {
	p := &point{x, x} // want `escaping composite literal .* allocates on the hot path of hotkern...Kernel..Step`
	k.scratch[0] = p.x
	tmp := make([]int, 4) // want `make allocates on the hot path`
	k.scratch[1] = tmp[0]
	k.scratch[2] = box(x) // want `interface boxing of int allocates on the hot path`
	n := x
	f := func() int { return n } // want `closure capturing n allocates its environment on the hot path`
	k.scratch[3] = f()
	_ = k.key(nil)
}

// label concatenates strings two edges down from the root.
func (k *Kernel) label(s string) {
	k.name = k.name + s // want `string concatenation allocates on the hot path`
}

// key pays a copy per call.
func (k *Kernel) key(b []byte) string {
	return string(b) // want `byte->string conversion copies and allocates`
}

// box stores its argument in an interface; the boxing is charged to
// the call site, where the concrete type is known.
func box(v any) int {
	if v == nil {
		return 0
	}
	return 1
}

// grow is reachable from Step, but its amortized growth is waived for
// the whole declaration by a single decl-scoped allow.
//
//lint:allow hotpath(fixture: amortized growth, decl-scoped waiver)
func (k *Kernel) grow(xs []int) {
	for _, x := range xs {
		k.buf = append(k.buf, x)
	}
}

// pad reaches the hot path only through an explicit instantiation,
// pad[int](...): the call graph must see through the index expression.
func pad[T any](xs []T, n int) []T {
	return widen(xs, n)
}

// widen is a generic callee of a generic function, called with the
// type inferred: flagged like any other function in the closure.
func widen[T any](xs []T, n int) []T {
	out := make([]T, len(xs)+n) // want `make allocates on the hot path of hotkern...Kernel..Step`
	copy(out, xs)
	return out
}

// growWords is generic amortized growth with its waiver on the one
// allocating line: reached from Step through growWords[uint32](...), the
// waiver suppresses the finding (an unreached waiver would be reported
// unused).
func growWords[W ~uint32 | ~uint64](ws []W, need int) []W {
	if need <= cap(ws) {
		return ws[:need]
	}
	return append(ws[:0:0], make([]W, need)...)[:need] //lint:allow hotpath(fixture: amortized growth in a generic function)
}

// Cold is not reachable from any hot root: the same constructs pass.
func Cold() *point {
	s := make([]int, 8)
	return &point{x: s[0]}
}
