// Package lib holds the testonly fixture's cases.
package lib

// Shape is dispatched from main, so every Area is reached; nothing calls
// Perimeter.Perim.
type Shape interface{ Area() int }
type Perimeter interface{ Perim() int }

type Square struct{ Side int }

func (s Square) Area() int      { return s.Side * s.Side }
func (s Square) Perim() int     { return 4 * s.Side } // want `lib\.Square\.Perim is reached by no main`
func (s Square) String() string { return "square" }   // fmt.Stringer's method: the standard library may call it

// Circle is a Shape, but no production code builds one: Shape.Area's
// dispatch cannot land on it, and fmt can never print one.
type Circle struct{ R int } // want `field Circle\.R is never read outside tests`

func (c Circle) Area() int      { return 3 * c.R * c.R } // want `lib\.Circle\.Area is reached by no main`
func (c Circle) String() string { return "circle" }      // want `lib\.Circle\.String is reached by no main`

// Kept is a Stringer no production code builds, declared on purpose:
// the allow covers String, and String's callee is covered with it.
type Kept struct{}

//lint:allow testonly(fixture: a Stringer kept for tests)
func (Kept) String() string { return keptName() }

func keptName() string { return "kept" }

// Label appears only as the type of a field of Tagged, which main
// builds and prints: fmt may call its String.
type Label int

func (l Label) String() string { return "label" }

type Tagged struct {
	L Label `json:"l"`
}

// Double is reached as a function value, tabled through Table.
func Apply(f func(int) int, x int) int { return f(x) }
func Double(x int) int                 { return 2 * x }

var Table = []func() int{tabled}
var unusedTable = []func() int{untabled}

func tabled() int   { return 1 }
func untabled() int { return 2 } // want `lib\.untabled is reached by no main`

type Counter struct {
	Total int   // read by main
	hits  int   // want `field Counter\.hits is never read outside tests`
	slots []int // want `field Counter\.slots is never read outside tests`
	// want+1 `unused //lint:allow testonly annotation`
	//lint:allow testonly(fixture: stale, Report reads this)
	seen int
}

// Hit increments, stores and stores through an index: none reads.
func (c *Counter) Hit() {
	c.hits++
	c.slots = make([]int, 1)
	c.slots[0] = c.Total
	c.seen = 1
}

func (c *Counter) Report() { println(c.seen) } // reached as a method value

// key's fields are read by the map that it keys.
type key struct{ a, b int }

func Keys() int {
	m := map[key]int{}
	m[key{1, 2}] = 3
	return len(m)
}

type Thing struct {
	Public  int
	private int // want `field Thing\.private is never read outside tests`
}

func (t *Thing) Exported() int   { t.private = 1; return t.Public }
func (t *Thing) unexported() int { return t.Public } // want `lib\.\(\*Thing\)\.unexported is reached by no main`

func Version() int   { return 1 }
func Unreached() int { return 0 } // want `lib\.Unreached is reached by no main`

// Oracle is declared, so its callee is covered too.
//
//lint:allow testonly(fixture: a test oracle kept on purpose)
func Oracle() int { return oracleHelper() }

func oracleHelper() int { return 3 }

// want+1 `unused //lint:allow testonly annotation`
func Covered() int { return 4 } //lint:allow testonly(fixture: stale, main calls this)
