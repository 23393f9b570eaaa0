// Package tofix is the testonly fixture module's root package.
package tofix

import "tofix/internal/lib"

// Thing re-exports lib.Thing: its exported methods and fields are API.
type Thing = lib.Thing

// Version is API.
func Version() int { return lib.Version() }
