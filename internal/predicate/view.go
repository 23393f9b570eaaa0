package predicate

// View is a checker's view of the sensed world: one column of n values
// per variable name, created by the first write of that name. A
// predicate names one to three variables, so finding a column is a scan
// of a list that short, and the view of n processes is a few slices
// instead of n maps. The flat checkers keep one over the fleet, each
// regional aggregator of the checker tree one over its region. It
// implements State by pointer (no boxing per Holds) and Columnar.
type View struct {
	n    int
	cols []viewColumn
}

type viewColumn struct {
	name string
	vals []float64
}

// NewView returns an empty view of n processes: every value reads 0.
func NewView(n int) *View { return &View{n: n} }

// Column implements Columnar: nil for a name never written.
func (v *View) Column(name string) []float64 {
	for i := range v.cols {
		if v.cols[i].name == name {
			return v.cols[i].vals
		}
	}
	return nil
}

// Get implements State: out-of-range processes and names never written
// read 0.
func (v *View) Get(proc int, name string) float64 {
	if col := v.Column(name); col != nil && proc >= 0 && proc < v.n {
		return col[proc]
	}
	return 0
}

// NumProcs implements State.
func (v *View) NumProcs() int { return v.n }

// Set writes the value of name at proc (which must be in range) and
// returns the value it replaces.
func (v *View) Set(proc int, name string, x float64) (prev float64) {
	col := v.Column(name)
	if col == nil {
		col = make([]float64, v.n)                     //lint:allow hotpath(a variable's column, made on its first Set and reused by every later one)
		v.cols = append(v.cols, viewColumn{name, col}) //lint:allow hotpath(as above)
	}
	prev, col[proc] = col[proc], x
	return prev
}

// Names returns the names written so far, in the order of their first
// write.
func (v *View) Names() []string {
	names := make([]string, len(v.cols))
	for i := range v.cols {
		names[i] = v.cols[i].name
	}
	return names
}

// Clear sets every value back to 0, keeping the columns.
func (v *View) Clear() {
	for i := range v.cols {
		clear(v.cols[i].vals)
	}
}
