package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"reflect"
	"sort"
	"strings"

	"vbi/internal/lint/analysis"
)

// WireTags checks structs marked `//vbi:wire` — the dist wire protocol,
// the canonical job JSON, cache entries and the pinned export formats.
// Every exported, non-embedded field of a wire struct, and of every
// module struct reachable through its fields, must carry an explicit
// `json` tag: an untagged field marshals under its Go name, so a routine
// rename would silently change cache keys, wire shape or cached results.
//
// Types with a custom MarshalJSON are exempt (their wire form does not
// come from field tags), as are types outside this module.
var WireTags = &analysis.Analyzer{
	Name: "wiretags",
	Doc:  "requires explicit json tags on //vbi:wire structs and every module struct reachable from them",
	Run:  runWireTags,
}

func runWireTags(pass *analysis.Pass) error {
	reported := make(map[string]bool) // qualified Type.Field, deduped across roots
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				_, marked := analysis.Directive(ts.Doc, "wire")
				if !marked {
					// A single-type declaration hangs the doc comment on
					// the GenDecl, not the TypeSpec.
					_, marked = analysis.Directive(gd.Doc, "wire")
				}
				if !marked {
					continue
				}
				obj := pass.TypesInfo.Defs[ts.Name]
				if obj == nil {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					pass.Reportf(ts.Pos(), "//vbi:wire on %s, which is not a named type", ts.Name.Name)
					continue
				}
				if _, ok := named.Underlying().(*types.Struct); !ok {
					pass.Reportf(ts.Pos(), "//vbi:wire on %s, which is not a struct type", ts.Name.Name)
					continue
				}
				checkWire(pass, ts, named, reported)
			}
		}
	}
	return nil
}

// checkWire walks the type graph reachable from the root wire struct and
// reports every module struct field missing an explicit json tag. All
// diagnostics anchor at the marked root declaration (the reachable type
// may live in another package), naming the offending field.
func checkWire(pass *analysis.Pass, root *ast.TypeSpec, rootType *types.Named, reported map[string]bool) {
	var missing []string
	seen := make(map[*types.Named]bool)

	var visitType func(t types.Type)
	visitStruct := func(owner *types.Named, st *types.Struct) {
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			if field.Embedded() {
				// Untagged embedded structs promote their fields; tagged
				// ones nest. Either way the inner fields are on the wire.
				visitType(field.Type())
				continue
			}
			if !field.Exported() {
				continue // unexported fields never marshal
			}
			if reflect.StructTag(st.Tag(i)).Get("json") == "" {
				missing = append(missing, qualifiedField(pass, owner, field))
			}
			visitType(field.Type())
		}
	}
	visitType = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			if seen[t] {
				return
			}
			seen[t] = true
			if !inModule(pass, t) {
				return
			}
			if analysis.HasMethod(t, "MarshalJSON") {
				return
			}
			if st, ok := t.Underlying().(*types.Struct); ok {
				visitStruct(t, st)
			} else {
				visitType(t.Underlying())
			}
		case *types.Pointer:
			visitType(t.Elem())
		case *types.Slice:
			visitType(t.Elem())
		case *types.Array:
			visitType(t.Elem())
		case *types.Map:
			visitType(t.Elem())
		case *types.Struct:
			visitStruct(nil, t)
		}
	}
	visitType(rootType)

	sort.Strings(missing)
	for _, field := range missing {
		if reported[field] {
			continue
		}
		reported[field] = true
		pass.Reportf(root.Pos(),
			"wire struct %s reaches field %s, which has no json tag: a field rename would silently change the wire format",
			rootType.Obj().Name(), field)
	}
}

// inModule reports whether the named type belongs to this module (first
// import-path element matches the pass package's). Standard-library and
// external types cannot be tagged here and are skipped.
func inModule(pass *analysis.Pass, t *types.Named) bool {
	pkg := t.Obj().Pkg()
	if pkg == nil {
		return false
	}
	return firstPathElem(pkg.Path()) == firstPathElem(pass.Pkg.Path())
}

func firstPathElem(path string) string {
	if i := strings.Index(path, "/"); i >= 0 {
		return path[:i]
	}
	return path
}

func qualifiedField(pass *analysis.Pass, owner *types.Named, field *types.Var) string {
	if owner == nil {
		return field.Name()
	}
	pkg := owner.Obj().Pkg()
	if pkg != nil && pkg != pass.Pkg {
		return fmt.Sprintf("%s.%s.%s", pkg.Name(), owner.Obj().Name(), field.Name())
	}
	return fmt.Sprintf("%s.%s", owner.Obj().Name(), field.Name())
}
