// Command docscheck is the docs drift gate: it fails CI when the
// operator-facing documentation and the code disagree. It is built
// in-repo (no downloads) and imports the real packages, so the
// "canonical" side of every comparison is the live code, never a copied
// list:
//
//   - The docs/OPERATIONS.md metrics catalog (tables between
//     `<!-- docscheck:catalog NAME -->` / `<!-- docscheck:end -->`
//     sentinels) must name exactly the counters the code exports —
//     runtime.Stats.Counters() for apps, the host record of
//     Host.FleetStats() for the substrate, federation.Stats.Counters()
//     for the mesh, and the standalone families metrics.Write renders.
//   - Every relative markdown link in README.md, ROADMAP.md and docs/
//     must resolve to an existing file.
//   - Every `diaspecc <sub>` / `diaspecc host <sub>` reference in those
//     documents must name a real subcommand, and every documented flag
//     in docs/OPERATIONS.md must be defined by cmd/diaspecc.
//   - No exported package-level identifier of internal/runtime whose godoc
//     carries a `Deprecated:` paragraph may still be referenced from
//     non-test code in this module or bench/ — godoc must not deprecate
//     what the tree's own examples and benchmark call (the network-free
//     share of what staticcheck SA1019 flags in the lint job).
//
// Run as `go run ./cmd/docscheck` from the repo root.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/federation"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// operationsDoc is the document holding the sentinel-marked catalog.
const operationsDoc = "docs/OPERATIONS.md"

// checkedDocs are the markdown files audited for links and CLI
// references.
var checkedDocs = []string{
	"README.md", "ROADMAP.md", "docs/OPERATIONS.md",
	"docs/ARCHITECTURE.md", "docs/DSL.md",
}

func main() {
	var problems []string
	fail := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	catalogs, err := parseCatalogs(operationsDoc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}

	checkCatalog(fail, catalogs, "app", keysOf(runtime.Stats{}.Counters()))
	checkCatalog(fail, catalogs, "host", hostCounterNames())
	checkCatalog(fail, catalogs, "federation", keysOf(federation.Stats{}.Counters()))
	checkCatalog(fail, catalogs, "families", standaloneFamilies())

	cli, hostCLI, flags, err := diaspeccSurface()
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}
	for _, doc := range checkedDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "docscheck:", err)
			os.Exit(2)
		}
		text := string(data)
		checkLinks(fail, doc, text)
		checkCLIRefs(fail, doc, text, cli, hostCLI)
	}
	if data, err := os.ReadFile(operationsDoc); err == nil {
		checkFlagRefs(fail, operationsDoc, string(data), flags)
	}
	if err := checkDeprecatedUse(fail, "."); err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: docs and code agree")
}

// keysOf returns a map's keys.
func keysOf(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// hostCounterNames asks a real (empty) Host for its fleet snapshot and
// reads the substrate record's counter names — the same code path
// `host stats` and the exporter use.
func hostCounterNames() []string {
	h, err := runtime.NewHost(runtime.SubstrateConfig{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}
	defer h.Close()
	return keysOf(h.FleetStats().Host.Counters)
}

// standaloneFamilies renders a synthetic snapshot with every standalone
// section populated and no counter maps, and reads the family names off
// the exposition's TYPE lines — exactly what a scraper sees.
func standaloneFamilies() []string {
	fs := transport.FleetStats{
		Peers:    []transport.PeerStatusRecord{{Name: "p", Health: "up"}},
		Registry: []transport.KindCount{{Kind: "K", Count: 1}},
		Budgets:  []transport.BudgetRecord{{App: "a"}},
	}
	var b strings.Builder
	if err := metrics.Write(&b, fs); err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}
	var fams []string
	for _, line := range strings.Split(b.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fams = append(fams, strings.Fields(rest)[0])
		}
	}
	return fams
}

var (
	sentinelRe = regexp.MustCompile(`<!-- docscheck:catalog ([a-z]+) -->`)
	cellNameRe = regexp.MustCompile("^\\| `([^`]+)`")
	linkRe     = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	cliRe      = regexp.MustCompile("diaspecc (?:host )?([a-z][a-z-]*)")
	cliHostRe  = regexp.MustCompile("diaspecc host ([a-z][a-z-]*)")
	caseRe     = regexp.MustCompile(`case "([a-z-]+)"`)
	flagDefRe  = regexp.MustCompile(`\.(?:String|Bool|Int|Duration)\("([a-z-]+)"`)
	flagRefRe  = regexp.MustCompile("`-([a-z][a-z-]*)`")
)

// parseCatalogs extracts the backticked first-column names of every
// sentinel-marked table in the operations manual.
func parseCatalogs(path string) (map[string][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	catalogs := make(map[string][]string)
	var current string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if m := sentinelRe.FindStringSubmatch(line); m != nil {
			if current != "" {
				return nil, fmt.Errorf("%s: catalog %q not closed before %q", path, current, m[1])
			}
			current = m[1]
			catalogs[current] = nil
			continue
		}
		if strings.Contains(line, "docscheck:end") {
			current = ""
			continue
		}
		if current == "" {
			continue
		}
		if m := cellNameRe.FindStringSubmatch(line); m != nil {
			catalogs[current] = append(catalogs[current], m[1])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if current != "" {
		return nil, fmt.Errorf("%s: catalog %q has no docscheck:end", path, current)
	}
	return catalogs, nil
}

// checkCatalog diffs one catalog against the canonical name set from
// the code, in both directions.
func checkCatalog(fail func(string, ...any), catalogs map[string][]string, name string, want []string) {
	got, ok := catalogs[name]
	if !ok {
		fail("%s: missing `<!-- docscheck:catalog %s -->` table", operationsDoc, name)
		return
	}
	gotSet := make(map[string]bool, len(got))
	for _, g := range got {
		if gotSet[g] {
			fail("%s: catalog %s lists %q twice", operationsDoc, name, g)
		}
		gotSet[g] = true
	}
	wantSet := make(map[string]bool, len(want))
	for _, w := range want {
		wantSet[w] = true
	}
	sort.Strings(want)
	for _, w := range want {
		if !gotSet[w] {
			fail("%s: catalog %s missing %q (exported by the code)", operationsDoc, name, w)
		}
	}
	sort.Strings(got)
	for _, g := range got {
		if !wantSet[g] {
			fail("%s: catalog %s documents %q, which the code does not export", operationsDoc, name, g)
		}
	}
}

// checkLinks verifies every relative markdown link in doc resolves to
// an existing file.
func checkLinks(fail func(string, ...any), doc, text string) {
	for _, m := range linkRe.FindAllStringSubmatch(text, -1) {
		target := m[1]
		if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
			continue
		}
		target, _, _ = strings.Cut(target, "#")
		if target == "" {
			continue
		}
		resolved := filepath.Join(filepath.Dir(doc), target)
		if _, err := os.Stat(resolved); err != nil {
			fail("%s: broken link %q (%s does not exist)", doc, m[1], resolved)
		}
	}
}

// diaspeccSurface scans the cmd/diaspecc sources for the dispatch arms
// and flag definitions — the CLI surface the docs may reference.
func diaspeccSurface() (cli, hostCLI, flags map[string]bool, err error) {
	cli = map[string]bool{"help": true}
	hostCLI = make(map[string]bool)
	flags = make(map[string]bool)
	entries, err := os.ReadDir("cmd/diaspecc")
	if err != nil {
		return nil, nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join("cmd/diaspecc", name))
		if err != nil {
			return nil, nil, nil, err
		}
		set := cli
		if name == "host.go" {
			set = hostCLI
		}
		for _, m := range caseRe.FindAllStringSubmatch(string(data), -1) {
			set[m[1]] = true
		}
		for _, m := range flagDefRe.FindAllStringSubmatch(string(data), -1) {
			flags[m[1]] = true
		}
	}
	// host.go's dispatcher lives behind main.go's "host" arm.
	cli["host"] = true
	return cli, hostCLI, flags, nil
}

// checkCLIRefs verifies every `diaspecc <sub>` and `diaspecc host
// <sub>` mention names a real subcommand.
func checkCLIRefs(fail func(string, ...any), doc, text string, cli, hostCLI map[string]bool) {
	for _, m := range cliHostRe.FindAllStringSubmatch(text, -1) {
		if !hostCLI[m[1]] {
			fail("%s: references `diaspecc host %s`, which is not a host subcommand", doc, m[1])
		}
	}
	for _, m := range cliRe.FindAllStringSubmatch(text, -1) {
		if strings.HasPrefix(m[0], "diaspecc host ") {
			continue // already checked against the host dispatcher
		}
		if !cli[m[1]] {
			fail("%s: references `diaspecc %s`, which is not a subcommand", doc, m[1])
		}
	}
}

// checkFlagRefs verifies every backticked `-flag` token in the
// operations manual is a flag cmd/diaspecc actually defines.
func checkFlagRefs(fail func(string, ...any), doc, text string, flags map[string]bool) {
	for _, m := range flagRefRe.FindAllStringSubmatch(text, -1) {
		if !flags[m[1]] {
			fail("%s: documents flag `-%s`, which cmd/diaspecc does not define", doc, m[1])
		}
	}
}

// runtimeDir and runtimeImport locate the package whose deprecations are
// audited.
const (
	runtimeDir    = "internal/runtime"
	runtimeImport = "repro/internal/runtime"
)

// deprecatedDoc reports whether a godoc comment carries a paragraph that
// starts with "Deprecated:" — the convention godoc, gopls and staticcheck
// all key on.
func deprecatedDoc(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, para := range strings.Split(doc.Text(), "\n\n") {
		if strings.HasPrefix(para, "Deprecated:") {
			return true
		}
	}
	return false
}

// deprecatedRuntimeIdents parses the non-test sources of internal/runtime
// under root and returns its exported package-level identifiers (funcs,
// types, vars, consts) documented as deprecated, mapped to the position of
// their declaring name (file and offset: the walk re-parses the file, so a
// token.Pos would not compare equal).
func deprecatedRuntimeIdents(fset *token.FileSet, root string) (map[string]token.Position, error) {
	dir := filepath.Join(root, runtimeDir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]token.Position)
	note := func(name *ast.Ident, docs ...*ast.CommentGroup) {
		if !name.IsExported() {
			return
		}
		for _, doc := range docs {
			if deprecatedDoc(doc) {
				out[name.Name] = fset.Position(name.Pos())
			}
		}
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					note(d.Name, d.Doc)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						note(sp.Name, sp.Doc, d.Doc)
					case *ast.ValueSpec:
						for _, name := range sp.Names {
							note(name, sp.Doc, d.Doc)
						}
					}
				}
			}
		}
	}
	return out, nil
}

// checkDeprecatedUse walks every non-test Go file under root (the module
// and bench/, which imports it) and reports references to deprecated
// internal/runtime identifiers: `alias.Name` selectors in importing files,
// bare `Name` identifiers inside the package itself.
func checkDeprecatedUse(fail func(string, ...any), root string) error {
	fset := token.NewFileSet()
	deprecated, err := deprecatedRuntimeIdents(fset, root)
	if err != nil || len(deprecated) == 0 {
		return err
	}
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		report := func(id *ast.Ident) {
			fail("%s: uses runtime.%s, whose godoc marks it Deprecated — migrate the caller or drop the marker",
				fset.Position(id.Pos()), id.Name)
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		if filepath.ToSlash(rel) == runtimeDir {
			ast.Inspect(file, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if decl, dep := deprecated[id.Name]; dep && decl != fset.Position(id.Pos()) {
						report(id)
					}
				}
				return true
			})
			return nil
		}
		alias := ""
		for _, imp := range file.Imports {
			if strings.Trim(imp.Path.Value, `"`) == runtimeImport {
				alias = "runtime"
				if imp.Name != nil {
					alias = imp.Name.Name
				}
			}
		}
		if alias == "" {
			return nil
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == alias {
					if _, dep := deprecated[sel.Sel.Name]; dep {
						report(sel.Sel)
					}
				}
			}
			return true
		})
		return nil
	})
}
