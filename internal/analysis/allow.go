package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The allow grammar is one comment per suppression:
//
//	//lint:allow <analyzer>(<reason>)
//
// placed either as a trailing comment on the offending line or as a
// full-line comment immediately above it. An allow anchored to a
// declaration — trailing on the declaration's first line, or the line
// above it — covers the whole declaration body, so one annotation on a
// function suppresses that analyzer throughout the function rather
// than only on its signature line. The reason is mandatory — an allow
// without one is itself a diagnostic — and an allow that no longer
// suppresses anything is reported as unused, so stale annotations
// cannot accumulate. An allow whose entire coverage is already
// provided by earlier allows for the same analyzer is dead by
// construction and reported as a duplicate (the common case: a
// trailing allow inside a function whose declaration already carries a
// decl-scoped allow). Deleting a load-bearing allow therefore fails
// `make lint` twice over: the original finding resurfaces.

const allowPrefix = "//lint:allow "

type allowEntry struct {
	pos       token.Position
	analyzer  string
	used      bool
	duplicate bool // same analyzer already allowed on this line
}

type allowIndex struct {
	// byLine maps file -> line -> entries covering that line.
	byLine map[string]map[int][]*allowEntry
	all    []*allowEntry
}

// parseAllows scans every comment of the package for allow annotations.
// Malformed annotations and annotations naming no analyzer of the suite
// are reported immediately (analyzer "allow").
func parseAllows(fset *token.FileSet, files []*ast.File) (*allowIndex, []Diagnostic) {
	idx := &allowIndex{byLine: make(map[string]map[int][]*allowEntry)}
	var diags []Diagnostic
	report := func(pos token.Position, msg string) {
		diags = append(diags, Diagnostic{
			File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Analyzer: "allow", Message: msg,
		})
	}
	known := func(name string) bool {
		for _, a := range All() {
			if a.Name == name {
				return true
			}
		}
		return false
	}
	// Top-level declaration line ranges, for decl-scoped coverage: an
	// allow anchored to a declaration's first line covers the whole
	// declaration.
	type lineRange struct{ start, end int }
	declRanges := make(map[string][]lineRange)
	for _, f := range files {
		fname := fset.Position(f.Pos()).Filename
		for _, d := range f.Decls {
			declRanges[fname] = append(declRanges[fname], lineRange{
				start: fset.Position(d.Pos()).Line,
				end:   fset.Position(d.End()).Line,
			})
		}
	}
	cover := func(e *allowEntry, line int) {
		lines := idx.byLine[e.pos.Filename]
		if lines == nil {
			lines = make(map[int][]*allowEntry)
			idx.byLine[e.pos.Filename] = lines
		}
		lines[line] = append(lines[line], e)
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, strings.TrimSuffix(allowPrefix, " ")) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					report(pos, "malformed //lint:allow (want //lint:allow analyzer(reason))")
					continue
				}
				open := strings.IndexByte(rest, '(')
				if open <= 0 || !strings.HasSuffix(rest, ")") {
					report(pos, "malformed //lint:allow (want //lint:allow analyzer(reason))")
					continue
				}
				name := strings.TrimSpace(rest[:open])
				if strings.TrimSpace(rest[open+1:len(rest)-1]) == "" {
					report(pos, "//lint:allow "+name+" needs a non-empty reason")
					continue
				}
				if !known(name) {
					report(pos, "//lint:allow names unknown analyzer "+name)
					continue
				}
				e := &allowEntry{pos: pos, analyzer: name}
				idx.all = append(idx.all, e)
				// A trailing comment covers its own line; a full-line
				// comment covers the next. Covering both is harmless and
				// keeps the grammar position-insensitive. Anchored to a
				// declaration's first line (trailing, or full-line
				// immediately above), the allow additionally covers the
				// whole declaration body.
				lines := []int{pos.Line, pos.Line + 1}
				for _, r := range declRanges[pos.Filename] {
					if r.start == pos.Line || r.start == pos.Line+1 {
						for line := r.start; line <= r.end; line++ {
							lines = append(lines, line)
						}
						break
					}
				}
				// An allow every one of whose covered lines is already
				// covered by earlier allows for the same analyzer can
				// never suppress anything they do not: it is dead, and
				// unused() reports it as a duplicate. It is not indexed,
				// so deleting the earlier allow revives this one.
				dup := true
				for _, line := range lines {
					if !idx.covers(token.Position{Filename: pos.Filename, Line: line}, name) {
						dup = false
						break
					}
				}
				if dup {
					e.duplicate = true
					continue
				}
				for _, line := range lines {
					cover(e, line)
				}
			}
		}
	}
	return idx, diags
}

// covers reports whether an indexed allow for analyzer covers pos's
// line, without marking it used.
func (idx *allowIndex) covers(pos token.Position, analyzer string) bool {
	for _, e := range idx.byLine[pos.Filename][pos.Line] {
		if e.analyzer == analyzer {
			return true
		}
	}
	return false
}

// suppress reports whether an allow covers d, marking it used.
func (idx *allowIndex) suppress(d Diagnostic) bool {
	hit := false
	for _, e := range idx.byLine[d.File][d.Line] {
		if e.analyzer == d.Analyzer {
			e.used = true
			hit = true
		}
	}
	return hit
}

// unused returns diagnostics for allows that suppressed nothing,
// duplicates included, except those for the quiet analyzer.
func (idx *allowIndex) unused(quiet string) []Diagnostic {
	var out []Diagnostic
	for _, e := range idx.all {
		if e.used || e.analyzer == quiet {
			continue
		}
		msg := "unused //lint:allow " + e.analyzer + " annotation (no diagnostic suppressed; delete it)"
		if e.duplicate {
			msg = "duplicate //lint:allow " + e.analyzer + " (earlier allows for this analyzer already cover every line it covers; delete it)"
		}
		out = append(out, Diagnostic{
			File: e.pos.Filename, Line: e.pos.Line, Col: e.pos.Column,
			Analyzer: "allow",
			Message:  msg,
		})
	}
	return out
}
