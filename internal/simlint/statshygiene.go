package simlint

import (
	"go/ast"
	"go/types"
)

// StatsHygiene enforces constructor discipline for statistics objects: a
// stats.Histogram built as a bare literal skips the geometry validation in
// NewHistogram, and value declarations produce unregistered zero-value
// instances whose methods misbehave. Every instance must come from the
// registering constructor (stats.NewHistogram, stats.NewSet,
// stats.NewTimeline). The stats package itself — where the constructors
// live — is exempt.
//
// It also enforces stat ownership: core.Stats counters are mutable only
// inside the core package. Core.Stats() hands out a live pointer so callers
// can read results cheaply, but a write through it from outside — a harness
// "adjusting" a counter, a test fudging a baseline — silently corrupts the
// numbers every downstream table is built from. The scheduler rewrite moved
// counter bumps around (issue accounting now lives in the shared issue()
// path); this rule pins where such bumps are ever allowed to live.
var StatsHygiene = &Analyzer{
	Name: "statshygiene",
	Doc:  "stats objects and metrics instruments must be built with their registering constructors; core.Stats fields are written only by core",
	Run:  runStatsHygiene,
}

// constructorOnly lists, per owning package, the types that must come from a
// registering constructor. The stats types validate their geometry there;
// the metrics instruments are live registry entries — a bare metrics.Counter
// is invisible to every exporter and violates the same ownership rule the
// stats dump relies on.
var constructorOnly = map[string]map[string]string{
	"stats": {
		"Histogram": "stats.NewHistogram",
		"Set":       "stats.NewSet",
		"Counter":   "stats.NewCounter",
		"Timeline":  "stats.NewTimeline",
	},
	"metrics": {
		"Counter":   "Registry.Counter",
		"Gauge":     "Registry.Gauge",
		"Histogram": "Registry.Histogram",
	},
}

func runStatsHygiene(pass *Pass) {
	if _, owns := constructorOnly[pass.Types.Name()]; owns {
		return
	}
	ownStats := pass.Types.Name() == "core"
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if ownStats {
					return true
				}
				for _, lhs := range n.Lhs {
					if field, ok := coreStatsField(pass, lhs); ok {
						pass.Reportf(lhs.Pos(), "write to core.Stats field %s outside the core package: counters are owned by the simulation kernel; read them, don't adjust them", field)
					}
				}
			case *ast.IncDecStmt:
				if ownStats {
					return true
				}
				if field, ok := coreStatsField(pass, n.X); ok {
					pass.Reportf(n.Pos(), "write to core.Stats field %s outside the core package: counters are owned by the simulation kernel; read them, don't adjust them", field)
				}
			case *ast.CompositeLit:
				if name, ctor, ok := statsType(pass.Info.TypeOf(n)); ok {
					pass.Reportf(n.Pos(), "bare %s literal: construct it with %s, which validates and registers the instance", name, ctor)
				}
			case *ast.CallExpr:
				// new(stats.T)
				id, ok := ast.Unparen(n.Fun).(*ast.Ident)
				if !ok || len(n.Args) != 1 {
					return true
				}
				if _, builtin := pass.Info.Uses[id].(*types.Builtin); !builtin || id.Name != "new" {
					return true
				}
				if name, ctor, ok := statsType(pass.Info.TypeOf(n.Args[0])); ok {
					pass.Reportf(n.Pos(), "new(%s) bypasses %s: the zero value is unvalidated and unregistered", name, ctor)
				}
			case *ast.ValueSpec:
				// var h stats.T — a zero value by declaration.
				if n.Type == nil {
					return true
				}
				if name, ctor, ok := statsValueType(pass.Info.TypeOf(n.Type)); ok {
					pass.Reportf(n.Pos(), "zero-value %s declaration: declare a pointer and assign %s", name, ctor)
				}
			case *ast.StructType:
				for _, field := range n.Fields.List {
					if name, ctor, ok := statsValueType(pass.Info.TypeOf(field.Type)); ok {
						pass.Reportf(field.Pos(), "embedded %s value field: hold a pointer obtained from %s", name, ctor)
					}
				}
			}
			return true
		})
	}
}

// statsType matches T or *T for a constructor-only stats type.
func statsType(t types.Type) (name, ctor string, ok bool) {
	if t == nil {
		return "", "", false
	}
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	return statsValueType(t)
}

// coreStatsField reports whether e selects a field of core.Stats (through a
// value or pointer), returning the field name.
func coreStatsField(pass *Pass, e ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	t := pass.Info.TypeOf(sel.X)
	if t == nil {
		return "", false
	}
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Name() != "core" || obj.Name() != "Stats" {
		return "", false
	}
	return sel.Sel.Name, true
}

// statsValueType matches only the value form T of a constructor-only type,
// returning its package-qualified name and constructor.
func statsValueType(t types.Type) (name, ctor string, ok bool) {
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", "", false
	}
	pkgTypes, owns := constructorOnly[obj.Pkg().Name()]
	if !owns {
		return "", "", false
	}
	ctor, ok = pkgTypes[obj.Name()]
	return obj.Pkg().Name() + "." + obj.Name(), ctor, ok
}
