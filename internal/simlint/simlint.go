// Package simlint is the repository's static-analysis pass: repo-specific
// analyzers built on go/ast and go/types only (no external dependencies),
// enforcing the properties the simulator's results depend on.
//
// Expression-level analyzers (since PR 2):
//
//   - determinism: flags range over map types anywhere (iteration order is
//     randomized per run), and — in simulation packages — time.Now, the
//     global math/rand source, and floating-point accumulation, all of
//     which break run-to-run reproducibility or bit-exactness.
//   - statshygiene: statistics objects (stats.Histogram, stats.Set,
//     stats.Timeline) and self-profiling counters (metrics.Counter) must be
//     created through their registering constructors, never bare struct
//     literals or new() — constructors validate geometry and establish the
//     registry the stable stats dump and metrics.Registry.Export rely on.
//   - tracehygiene: every trace-event emission site must sit behind the
//     nil-tracer guard established by the observability layer, so disabled
//     tracing costs nothing on the hot path.
//
// Contract analyzers (whole-program checks over the type-checked tree):
//
//   - snapshotcomplete: for every type with the Snapshotter shape (paired
//     SnapshotTo/RestoreFrom methods taking *snapshot.Writer / *snapshot.Reader),
//     every struct field is either referenced by the snapshot/restore bodies
//     (transitively, through same-package helpers) or explicitly waived with
//     //simlint:nosnapshot <reason>. Catches the "new field, stale
//     checkpoint" bug class.
//   - fingerprint: every core.Config field is folded into the config
//     fingerprint unless configFingerprint canonicalizes it away, and every
//     canonicalized-away field carries //simlint:nofingerprint <reason> at
//     its declaration. Also flags Config fields whose types cannot
//     fingerprint stably (pointers, funcs, chans, interfaces).
//   - hotpathalloc: functions annotated //simlint:hotpath are verified
//     allocation-free by driving `go build -gcflags=-m` and cross-checking
//     the compiler's escape diagnostics against the annotated body spans.
//   - lockdiscipline: in internal/metrics and internal/harness, no mutex
//     may be held across a channel send or a call through a function value
//     (user callback); and a field accessed through sync/atomic must never
//     also be read or written plainly.
//
// A finding can be suppressed with a comment on the same or preceding line,
// and the justification after "--" is mandatory:
//
//	//simlint:allow determinism -- keys are sorted before use
//
// Suppression hygiene is itself checked: an allow comment with no reason, an
// allow that suppresses nothing, a stale nosnapshot/nofingerprint waiver, or
// an unknown directive are all findings (analyzer name "suppression"), and
// they cannot themselves be suppressed.
//
// Test files are not analyzed: the analyzers police simulation code, and
// tests legitimately use fixed-seed math/rand and wall-clock timeouts.
package simlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All lists every analyzer, in reporting order.
var All = []*Analyzer{
	Determinism,
	StatsHygiene,
	TraceHygiene,
	SnapshotComplete,
	Fingerprint,
	HotPathAlloc,
	LockDiscipline,
}

// Options configures a Run.
type Options struct {
	// Root is the module root directory. hotpathalloc shells out to
	// `go build -gcflags=-m` there to obtain the compiler's escape
	// diagnostics; with Root empty that step is skipped (fixture mode).
	Root string
}

// directive is one parsed //simlint:<verb> comment.
type directive struct {
	verb   string   // "allow", "nosnapshot", "nofingerprint", "hotpath", or unknown
	names  []string // allow only: analyzer names
	reason string   // justification text
	pos    token.Position
	// ownLine is set when the comment has no code before it on its line. A
	// trailing directive governs only its own line; an own-line directive
	// governs the line below it. Without the distinction, a trailing
	// directive on one struct field would bleed onto the next field.
	ownLine bool
	used    bool // a finding was suppressed / a contract consumed the waiver
}

// state carries one whole Run: every package, the merged directive index,
// and the findings. Analyzers see it through Pass.
type state struct {
	opts Options
	ran  map[string]bool // analyzer names in this run
	// dirs merges every package's directives: file -> line -> directives.
	// Lookups (suppression, waivers) work cross-package through it.
	dirs map[string]map[int][]*directive
	// analyzedFiles holds every filename in the analyzed set, so analyzers
	// can tell "no directive collected" from "file never looked at".
	analyzedFiles map[string]bool
	hot           []hotSpan // //simlint:hotpath body spans, filled by hotpathalloc
	// fpAnchor is set by fingerprint when it finds core.Config and its
	// configFingerprint anchor; nofingerprint staleness is only judged when
	// the anchor was actually in the analyzed set.
	fpAnchor bool
	diags    []Diagnostic
}

// hotSpan is one annotated hot-path function body.
type hotSpan struct {
	file       string // filename as recorded in the FileSet
	start, end int    // inclusive line range of the body
	fn         string // qualified name, for messages
	pkgPath    string // import path, for the go build invocation
}

// Pass carries one (package, analyzer) run; analyzers report through it.
type Pass struct {
	*Package
	analyzer string
	st       *state
}

// Reportf records a finding at pos unless a //simlint:allow comment
// suppresses this analyzer there.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.st.report(p.analyzer, p.Fset.Position(pos), format, args...)
}

// report records a finding unless an allow directive suppresses it.
func (st *state) report(analyzer string, pos token.Position, format string, args ...any) {
	if st.allowed(analyzer, pos) {
		return
	}
	st.diags = append(st.diags, Diagnostic{
		Pos:      pos,
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowed reports whether an allow directive for the analyzer sits on the
// finding's line or the line above it, marking any match as used.
func (st *state) allowed(analyzer string, pos token.Position) bool {
	lines := st.dirs[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range lines[line] {
			if d.verb != "allow" || !d.governs(pos.Line) {
				continue
			}
			for _, name := range d.names {
				if name == analyzer || name == "all" {
					d.used = true
					return true
				}
			}
		}
	}
	return false
}

// governs reports whether the directive applies to the given line: its own
// line always; the line below only when the directive stands on a line of
// its own.
func (d *directive) governs(line int) bool {
	return d.pos.Line == line || (d.ownLine && d.pos.Line == line-1)
}

// directiveAt returns the directive with the given verb on pos's line or the
// line above it, or nil. Analyzers mark the result used themselves.
func (p *Pass) directiveAt(pos token.Pos, verb string) *directive {
	position := p.Fset.Position(pos)
	lines := p.st.dirs[position.Filename]
	if lines == nil {
		return nil
	}
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, d := range lines[line] {
			if d.verb == verb && d.governs(position.Line) {
				return d
			}
		}
	}
	return nil
}

// collectDirectives parses every //simlint: comment in the package into the
// per-file index and the in-source-order list.
func (pkg *Package) collectDirectives() {
	pkg.dirs = make(map[string]map[int][]*directive)
	for _, f := range pkg.Files {
		codeLines := collectCodeLines(pkg.Fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//simlint:")
				if !ok {
					continue
				}
				body, reason, hasReason := strings.Cut(rest, "--")
				fields := strings.Fields(body)
				if len(fields) == 0 {
					continue
				}
				d := &directive{
					verb:   fields[0],
					pos:    pkg.Fset.Position(c.Pos()),
					reason: strings.TrimSpace(reason),
				}
				d.ownLine = !codeLines[d.pos.Line]
				switch d.verb {
				case "allow":
					// //simlint:allow name1,name2 -- reason
					if len(fields) > 1 {
						for _, name := range strings.Split(fields[1], ",") {
							d.names = append(d.names, strings.TrimSpace(name))
						}
					}
				case "nosnapshot", "nofingerprint":
					// //simlint:nosnapshot reason text ("--" optional)
					if !hasReason {
						d.reason = strings.TrimSpace(strings.Join(fields[1:], " "))
					}
				}
				lines := pkg.dirs[d.pos.Filename]
				if lines == nil {
					lines = make(map[int][]*directive)
					pkg.dirs[d.pos.Filename] = lines
				}
				lines[d.pos.Line] = append(lines[d.pos.Line], d)
				pkg.dirList = append(pkg.dirList, d)
			}
		}
	}
}

// collectCodeLines marks every line holding a non-comment token, so
// directive collection can tell trailing comments from own-line ones
// (comments never appear in the Inspect walk).
func collectCodeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		case *ast.Ident, *ast.BasicLit:
			lines[fset.Position(n.Pos()).Line] = true
		}
		return true
	})
	return lines
}

// Run executes the analyzers over the packages, then the hotpathalloc escape
// step and suppression hygiene, and returns the findings sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer, opts Options) ([]Diagnostic, error) {
	st := &state{
		opts:          opts,
		ran:           make(map[string]bool),
		dirs:          make(map[string]map[int][]*directive),
		analyzedFiles: make(map[string]bool),
	}
	for _, a := range analyzers {
		st.ran[a.Name] = true
	}
	for _, pkg := range pkgs {
		//simlint:allow determinism -- index merge only; findings are sorted before output
		for file, lines := range pkg.dirs {
			st.dirs[file] = lines
		}
		for _, f := range pkg.Files {
			st.analyzedFiles[pkg.Fset.Position(f.Package).Filename] = true
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{Package: pkg, analyzer: a.Name, st: st})
		}
	}
	if st.ran[HotPathAlloc.Name] && opts.Root != "" && len(st.hot) > 0 {
		if err := st.checkEscapes(); err != nil {
			return nil, err
		}
	}
	st.hygiene(pkgs)
	sort.Slice(st.diags, func(i, j int) bool {
		a, b := st.diags[i], st.diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return st.diags, nil
}

// checkEscapes drives `go build -gcflags=-m` over the packages that contain
// hot-path annotations and reports every escape-analysis diagnostic that
// lands inside an annotated body span.
func (st *state) checkEscapes() error {
	var paths []string
	seenPkg := make(map[string]bool)
	for _, h := range st.hot {
		if !seenPkg[h.pkgPath] {
			seenPkg[h.pkgPath] = true
			paths = append(paths, h.pkgPath)
		}
	}
	args := append([]string{"build", "-gcflags=-m"}, paths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = st.opts.Root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("hotpathalloc: go build -gcflags=-m failed: %v\n%s", err, out)
	}
	seenDiag := make(map[string]bool)
	for _, line := range strings.Split(string(out), "\n") {
		file, lno, col, msg, ok := parseBuildDiag(line)
		if !ok {
			continue
		}
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		if !filepath.IsAbs(file) {
			file = filepath.Join(st.opts.Root, file)
		}
		for i := range st.hot {
			h := &st.hot[i]
			if file != h.file || lno < h.start || lno > h.end {
				continue
			}
			pos := token.Position{Filename: file, Line: lno, Column: col}
			key := fmt.Sprintf("%s:%d:%d %s", file, lno, col, msg)
			if !seenDiag[key] {
				seenDiag[key] = true
				st.report(HotPathAlloc.Name, pos,
					"allocation in hot path %s: %s", h.fn, msg)
			}
			break
		}
	}
	return nil
}

// parseBuildDiag splits a `file.go:line:col: message` compiler diagnostic.
func parseBuildDiag(line string) (file string, lno, col int, msg string, ok bool) {
	if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, " ") {
		return "", 0, 0, "", false
	}
	parts := strings.SplitN(line, ":", 4)
	if len(parts) != 4 || !strings.HasSuffix(parts[0], ".go") {
		return "", 0, 0, "", false
	}
	if _, err := fmt.Sscanf(parts[1], "%d", &lno); err != nil {
		return "", 0, 0, "", false
	}
	if _, err := fmt.Sscanf(parts[2], "%d", &col); err != nil {
		return "", 0, 0, "", false
	}
	return parts[0], lno, col, strings.TrimSpace(parts[3]), true
}

// hygiene reports directive problems: suppressions without a reason,
// suppressions that suppressed nothing, stale waivers, and unknown verbs.
// These findings carry the analyzer name "suppression" and are not
// themselves suppressible.
func (st *state) hygiene(pkgs []*Package) {
	known := map[string]bool{"all": true}
	for _, a := range All {
		known[a.Name] = true
	}
	emit := func(pos token.Position, format string, args ...any) {
		st.diags = append(st.diags, Diagnostic{
			Pos:      pos,
			Analyzer: "suppression",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, pkg := range pkgs {
		for _, d := range pkg.dirList {
			switch d.verb {
			case "allow":
				if len(d.names) == 0 {
					emit(d.pos, "//simlint:allow names no analyzers")
					continue
				}
				if d.reason == "" {
					emit(d.pos, "suppression has no justification: write //simlint:allow %s -- <reason>",
						strings.Join(d.names, ","))
					continue
				}
				ranAll := true
				for _, name := range d.names {
					if !known[name] {
						emit(d.pos, "suppression names unknown analyzer %q", name)
						ranAll = false
						continue
					}
					if name == "all" {
						for _, a := range All {
							ranAll = ranAll && st.ran[a.Name]
						}
					} else {
						ranAll = ranAll && st.ran[name]
					}
				}
				if ranAll && !d.used {
					emit(d.pos, "unused suppression: no %s finding here — remove the //simlint:allow",
						strings.Join(d.names, ","))
				}
			case "nosnapshot":
				if d.reason == "" {
					emit(d.pos, "waiver has no reason: write //simlint:nosnapshot <why this field is not snapshotted>")
					continue
				}
				if st.ran[SnapshotComplete.Name] && !d.used {
					emit(d.pos, "stale //simlint:nosnapshot: no snapshot contract covers this line — remove the waiver")
				}
			case "nofingerprint":
				if d.reason == "" {
					emit(d.pos, "waiver has no reason: write //simlint:nofingerprint <why this field is excluded>")
					continue
				}
				if st.ran[Fingerprint.Name] && st.fpAnchor && !d.used {
					emit(d.pos, "stale //simlint:nofingerprint: the config fingerprint does not exclude this field — remove the waiver")
				}
			case "hotpath":
				if st.ran[HotPathAlloc.Name] && !d.used {
					emit(d.pos, "//simlint:hotpath must sit on a function declaration (doc comment or the line above func)")
				}
			default:
				emit(d.pos, "unknown simlint directive %q (known: allow, nosnapshot, nofingerprint, hotpath)", d.verb)
			}
		}
	}
}
