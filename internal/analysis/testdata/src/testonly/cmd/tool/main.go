// Command tool is the fixture's main.
package main

import (
	"fmt"

	"tofix/internal/lib"
)

func main() {
	var sh lib.Shape = lib.Square{Side: 2}
	c := &lib.Counter{Total: 1}
	c.Hit()
	report := c.Report
	report()
	fmt.Println(sh.Area(), lib.Apply(lib.Double, 3), lib.Table[0](), c.Total, lib.Keys(), lib.Covered(), lib.Tagged{})
}
