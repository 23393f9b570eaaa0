package predicate

import "math"

// Incremental is the one incremental evaluator of compiled clauses, driven
// by the ground-truth oracle (internal/world) and the checker tree
// (internal/checker): Set one key's value, then ask Holds. Its verdict is
// bit for bit what evaluating the predicate whole over the same values
// gives, in O(1) per Set for the conjuncts that allow it: each linear
// comparison side is a running ±1 sum updated by new − previous, trusted
// while every constant and value folded into the conjunct is an ExactInt
// and their summed magnitudes stay below 2⁵³ (so no evaluation order can
// round, and setting a key back restores the sum exactly); the first value
// that breaks the rule demotes the conjunct, for the rest of the run, to
// re-evaluation of its AST against the evaluator's own value table. Opaque
// conjuncts are re-evaluated only after a variable they read changed,
// untracked ones (a FuncCond inside) on every Holds.
//
// Every variable a tracked conjunct reads (aggregates expanded over the n
// processes) owns a slot, an index into vals, and hooks[hookAt[s]:hookAt[s+1]]
// are the conjuncts reading slot s. A key finds its slot without hashing:
// cols holds one column per name read, the shape View uses, whose entry
// at a process is 1 + the slot of name@proc (0: no tracked conjunct reads
// it). A column ends at the largest process read below n; the literals
// x@p with p ≥ n, which no process can report, keep their slots in far,
// nil unless the predicate names one, so such a literal costs one map
// entry and not a column p long.
type Incremental struct {
	n      int
	cols   []slotColumn
	far    map[Key]int32
	vals   []float64
	hookAt []int32
	hooks  []hook

	cls []incClause
	// dirty[:nDirty] are the tracked clauses touched since the last Holds;
	// each is listed once, so len(cls) entries always suffice.
	dirty    []int32
	nDirty   int
	numFalse int // tracked clauses currently false
	// untracked clauses (Clause.Untracked) are evaluated on every Holds;
	// extra holds the variables no slot covers, kept only for them to read.
	untracked []int32
	extra     map[Key]float64

	// Evals counts conjunct evaluations, incremental or whole; Demoted
	// counts linear conjuncts evaluated whole because a constant or value
	// failed the exactness rule.
	Evals, Demoted int64
}

// incClause is the evaluator's state for one conjunct.
type incClause struct {
	cond      Cond
	op        CmpOp
	untracked bool
	// exact: sum holds the two side values and mag < 2⁵³ bounds them.
	exact bool
	sum   [2]float64
	mag   float64
	truth bool
	dirty bool
}

// slotColumn is one name's process → slot index (see Incremental).
type slotColumn struct {
	name string
	slot []int32
}

// hook says that a slot's value feeds side `side` of clause `clause` with
// weight ±1; for clauses that are not exact only the clause matters.
type hook struct {
	clause int32
	side   int8
	neg    bool
}

// Init compiles pred over n processes, every variable at 0, discarding
// whatever e held. Consumers embed the evaluator by value and Init it.
func (e *Incremental) Init(pred Cond, n int) {
	*e = Incremental{n: n}
	clauses := Compile(pred)
	e.cls = make([]incClause, len(clauses))
	e.dirty = make([]int32, len(clauses))
	for i, cl := range clauses {
		c := &e.cls[i]
		c.cond, c.op, c.untracked = cl.Cond, cl.Op, cl.Untracked
		if cl.Untracked {
			e.untracked = append(e.untracked, int32(i))
			continue
		}
		if cl.Linear {
			c.sum = [2]float64{cl.Sides[0].Konst, cl.Sides[1].Konst}
			c.mag = cl.Sides[0].Mag + cl.Sides[1].Mag
			c.exact = c.mag < 1<<53
			if !c.exact {
				e.Demoted++
			}
		}
	}
	if len(e.untracked) > 0 {
		e.extra = make(map[Key]float64)
	}

	// Pass 1 sizes every column and counts the (slot, hook) pairs; pass 2
	// assigns slots in first-read order and lists the pairs in clause
	// order, growing nothing.
	b := slotBuilder{e: e, sizing: true}
	b.size = b.sizeBuf[:0]
	b.visit(clauses)
	for c := range e.cols {
		e.cols[c].slot = make([]int32, b.size[c])
	}
	b.sizing, b.pairs = false, make([]slotPair, 0, b.nPairs)
	b.visit(clauses)
	pairs, nSlots := b.pairs, b.nSlots

	// Pass 3: bucket the pairs by slot (counting sort keeps clause order).
	e.vals = make([]float64, nSlots)
	e.hookAt = make([]int32, nSlots+1)
	for _, p := range pairs {
		e.hookAt[p.slot+1]++
	}
	for s := range e.vals {
		e.hookAt[s+1] += e.hookAt[s]
	}
	e.hooks = make([]hook, len(pairs))
	next := make([]int32, len(e.vals))
	copy(next, e.hookAt)
	for _, p := range pairs {
		e.hooks[next[p.slot]] = p.h
		next[p.slot]++
	}

	// Initial truth at the all-zero state: start every tracked clause at
	// true and let refresh count the false ones.
	for i := range e.cls {
		if !clauses[i].Untracked {
			e.cls[i].truth = true
			e.refresh(&e.cls[i])
		}
	}
}

// slotBuilder is Init's two passes over the variables the tracked clauses
// read: sizing the columns, then assigning the slots.
type slotBuilder struct {
	e      *Incremental
	sizing bool
	// size is, per column, the largest process read below n plus one;
	// sizeBuf holds it for the one to four names a predicate reads.
	size    []int
	sizeBuf [4]int
	nPairs  int
	pairs   []slotPair
	nSlots  int32
}

// slotPair is one (slot, hook) read, bucketed by slot at the end of Init.
type slotPair struct {
	slot int32
	h    hook
}

// visit reads every variable of every tracked clause, in clause order: an
// exact clause's terms with their sides and signs, any other clause's
// variables as CollectVars reports them.
func (b *slotBuilder) visit(clauses []Clause) {
	for i, cl := range clauses {
		switch {
		case cl.Untracked:
		case b.e.cls[i].exact:
			for side := range cl.Sides {
				for _, t := range cl.Sides[side].Terms {
					b.read(t.Key, hook{clause: int32(i), side: int8(side), neg: t.Neg})
				}
			}
		default:
			cl.Cond.CollectVars(func(k Key) { b.read(k, hook{clause: int32(i)}) })
		}
	}
}

// read takes one variable read; an aggregate (Proc -1) reads name at every
// process.
func (b *slotBuilder) read(k Key, h hook) {
	e, c := b.e, b.e.column(k.Name)
	if b.sizing {
		if c == len(b.size) {
			b.size = append(b.size, 0)
		}
		switch {
		case k.Proc == -1:
			b.size[c] = e.n
			b.nPairs += e.n
		case k.Proc >= e.n:
			if e.far == nil {
				e.far = make(map[Key]int32)
			}
			b.nPairs++
		case k.Proc >= 0:
			b.size[c] = max(b.size[c], k.Proc+1)
			b.nPairs++
		}
		return
	}
	col := e.cols[c].slot
	switch {
	case k.Proc == -1:
		for p := range col {
			b.assign(&col[p], h)
		}
	case k.Proc >= e.n:
		s := e.far[k]
		b.assign(&s, h)
		e.far[k] = s
	case k.Proc >= 0:
		b.assign(&col[k.Proc], h)
	}
}

// assign lists one read of the slot *s holds (1 + slot, 0: none yet),
// numbering the slot first if it has none.
func (b *slotBuilder) assign(s *int32, h hook) {
	if *s == 0 {
		b.nSlots++
		*s = b.nSlots
	}
	b.pairs = append(b.pairs, slotPair{slot: *s - 1, h: h})
}

// Conjuncts calls fn with each conjunct Init compiled, in source order,
// and whether it is untracked (Clause.Untracked): what a consumer needs
// to know about the clauses without compiling the predicate again.
func (e *Incremental) Conjuncts(fn func(c Cond, untracked bool)) {
	for i := range e.cls {
		fn(e.cls[i].cond, e.cls[i].untracked)
	}
}

// column returns the index of name's column, appending an empty one
// when no column has that name yet (Init only).
func (e *Incremental) column(name string) int {
	for c := range e.cols {
		if e.cols[c].name == name {
			return c
		}
	}
	e.cols = append(e.cols, slotColumn{name: name})
	return len(e.cols) - 1
}

// Slot returns the slot of (proc, name), an index in [0, NumSlots()), or
// -1 when no tracked conjunct reads it. A consumer keeping a mark per
// variable the predicate reads indexes it by slot.
func (e *Incremental) Slot(proc int, name string) int {
	for c := range e.cols {
		if col := e.cols[c].slot; e.cols[c].name == name {
			if uint(proc) < uint(len(col)) {
				return int(col[proc]) - 1
			}
			break
		}
	}
	if e.far != nil && proc >= e.n {
		if s, ok := e.far[Key{Proc: proc, Name: name}]; ok {
			return int(s) - 1
		}
	}
	return -1
}

// NumSlots returns the number of slots: the variables tracked conjuncts
// read.
func (e *Incremental) NumSlots() int { return len(e.vals) }

// Get implements State over the evaluator's own values.
func (e *Incremental) Get(proc int, name string) float64 {
	if s := e.Slot(proc, name); s >= 0 {
		return e.vals[s]
	}
	return e.extra[Key{Proc: proc, Name: name}]
}

// NumProcs implements State.
func (e *Incremental) NumProcs() int { return e.n }

// Set gives key k the value v. A key no conjunct reads is dropped unless
// an untracked conjunct might read it.
func (e *Incremental) Set(k Key, v float64) {
	s := e.Slot(k.Proc, k.Name)
	if s < 0 {
		if e.extra != nil {
			e.extra[k] = v
		}
		return
	}
	old := e.vals[s]
	e.vals[s] = v
	for _, h := range e.hooks[e.hookAt[s]:e.hookAt[s+1]] {
		c := &e.cls[h.clause]
		if c.exact {
			e.fold(c, h, old, v)
		}
		if !c.dirty {
			c.dirty = true
			e.dirty[e.nDirty] = h.clause
			e.nDirty++
		}
	}
}

// fold moves one hooked value from old to v inside an exact clause, or
// demotes the clause when v breaks the exactness rule. old was folded
// while the clause was exact, so it is an ExactInt.
func (e *Incremental) fold(c *incClause, h hook, old, v float64) {
	c.mag += math.Abs(v) - math.Abs(old)
	if !ExactInt(v) || c.mag >= 1<<53 {
		c.exact = false
		e.Demoted++
		return
	}
	d := v - old
	if h.neg {
		d = -d
	}
	c.sum[h.side] += d
}

// Holds reports whether the predicate holds at the current values.
func (e *Incremental) Holds() bool {
	for _, i := range e.dirty[:e.nDirty] {
		c := &e.cls[i]
		c.dirty = false
		e.refresh(c)
	}
	e.nDirty = 0
	if e.numFalse > 0 {
		return false
	}
	for _, i := range e.untracked {
		e.Evals++
		if !e.cls[i].cond.Holds(e) {
			return false
		}
	}
	return true
}

// refresh re-derives one tracked clause's truth and maintains numFalse.
func (e *Incremental) refresh(c *incClause) {
	e.Evals++
	var truth bool
	if c.exact {
		truth = CmpEval(c.op, c.sum[0], c.sum[1])
	} else {
		truth = c.cond.Holds(e)
	}
	if truth != c.truth {
		c.truth = truth
		if truth {
			e.numFalse--
		} else {
			e.numFalse++
		}
	}
}
