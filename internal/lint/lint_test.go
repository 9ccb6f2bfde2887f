package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// The golden harness: each fixture package under testdata/ marks the lines
// an analyzer must flag with `// want "<substring>"`. A test passes when
// every want comment is matched by a finding on its line and every finding
// lands on a want comment — unexpected findings are false positives,
// unmatched wants are false negatives, and both fail loudly.

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// fixtureWants scans a fixture directory's sources for want comments,
// keyed by "<basename>:<line>".
func fixtureWants(t *testing.T, dir string) map[string][]string {
	t.Helper()
	wants := map[string][]string{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("reading fixture file: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				key := fmt.Sprintf("%s:%d", e.Name(), i+1)
				wants[key] = append(wants[key], m[1])
			}
		}
	}
	return wants
}

func runFixture(t *testing.T, dir string, analyzers []Analyzer) []Finding {
	t.Helper()
	pkg, err := LoadFixture(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	return Run([]*Package{pkg}, analyzers)
}

func dump(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString("  " + f.String() + "\n")
	}
	return b.String()
}

func TestAnalyzerFixtures(t *testing.T) {
	fixtureScope := []string{"fixture"}
	cases := []struct {
		name      string
		analyzers []Analyzer
	}{
		{"lockorder", []Analyzer{NewLockOrder()}},
		{"determinism", []Analyzer{&Determinism{Scope: fixtureScope}}},
		{"walpath", []Analyzer{NewWALPath()}},
		{"errdiscard", []Analyzer{&ErrDiscard{
			Scope:   fixtureScope,
			Methods: []string{"Close", "Sync", "Flush", "Write"},
		}}},
		{"ctxflow", []Analyzer{&CtxFlow{BackgroundScope: fixtureScope}}},
		{"sqrtscan", []Analyzer{&SqrtScan{Scope: fixtureScope, AllowFiles: SqrtScanAllowFiles}}},
		{"guardedby", []Analyzer{NewGuardedBy()}},
		{"golifecycle", []Analyzer{&GoLifecycle{Scope: fixtureScope}}},
		{"fsyncorder", []Analyzer{&FsyncOrder{Scope: fixtureScope}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join("testdata", tc.name)
			wants := fixtureWants(t, dir)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want comments", dir)
			}
			for _, f := range runFixture(t, dir, tc.analyzers) {
				key := fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)
				matched := -1
				for i, sub := range wants[key] {
					if strings.Contains(f.Message, sub) {
						matched = i
						break
					}
				}
				if matched < 0 {
					t.Errorf("unexpected finding (false positive): %s", f)
					continue
				}
				wants[key] = append(wants[key][:matched], wants[key][matched+1:]...)
				if len(wants[key]) == 0 {
					delete(wants, key)
				}
			}
			for key, subs := range wants {
				for _, sub := range subs {
					t.Errorf("missing finding (false negative) at %s: want message containing %q", key, sub)
				}
			}
		})
	}
}

// TestGeoBeforeCatalogIsCaught pins the acceptance case by name: a scratch
// store function that takes geoMu before catalogMu must be flagged as a
// lock-order inversion.
func TestGeoBeforeCatalogIsCaught(t *testing.T) {
	findings := runFixture(t, filepath.Join("testdata", "lockorder"), []Analyzer{NewLockOrder()})
	for _, f := range findings {
		if f.Analyzer == "lockorder" && strings.Contains(f.Message, "acquires catalogMu while holding geoMu") {
			return
		}
	}
	t.Fatalf("lockorder missed the geoMu-before-catalogMu inversion; findings:\n%s", dump(findings))
}

// TestNolintDirectives checks every half of the escape hatch: a directive
// with a reason suppresses its finding, a bare directive suppresses
// nothing — the original finding survives and the directive itself is
// reported — and a well-formed directive that no longer suppresses
// anything is reported as stale (but only when the analyzers it names
// actually ran).
func TestNolintDirectives(t *testing.T) {
	findings := runFixture(t, filepath.Join("testdata", "nolint"),
		[]Analyzer{&Determinism{Scope: []string{"fixture"}}})
	if len(findings) != 3 {
		t.Fatalf("want exactly 3 findings (bare directive + surviving time.Now + stale directive), got %d:\n%s",
			len(findings), dump(findings))
	}
	bare, surviving, stale := findings[0], findings[1], findings[2]
	if bare.Analyzer != "nolint" || !strings.Contains(bare.Message, "no justification") {
		t.Errorf("first finding should report the reasonless directive, got: %s", bare)
	}
	if surviving.Analyzer != "determinism" || !strings.Contains(surviving.Message, "time.Now") {
		t.Errorf("second finding should be the unsuppressed time.Now, got: %s", surviving)
	}
	if surviving.Pos.Line != bare.Pos.Line+1 {
		t.Errorf("the surviving finding should sit directly under the bare directive (directive line %d, finding line %d)",
			bare.Pos.Line, surviving.Pos.Line)
	}
	if stale.Analyzer != "nolint" || !strings.Contains(stale.Message, "stale") {
		t.Errorf("third finding should report the stale directive, got: %s", stale)
	}
	if !strings.Contains(stale.Message, "determinism") {
		t.Errorf("stale finding should name the suppressed analyzer, got: %s", stale)
	}
}

// TestStoreLockOrderMatchesStoreDecl parses internal/store/store.go and
// asserts the analyzer's mutex table equals the Store struct's
// sync.RWMutex fields in declaration order — the same order the Store doc
// comment documents — so the checker and the code cannot drift apart.
func TestStoreLockOrderMatchesStoreDecl(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("..", "store", "store.go"), nil, 0)
	if err != nil {
		t.Fatalf("parsing store.go: %v", err)
	}
	var got []string
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "Store" {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		for _, fld := range st.Fields.List {
			sel, ok := fld.Type.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			pkgID, ok := sel.X.(*ast.Ident)
			if !ok || pkgID.Name != "sync" || sel.Sel.Name != "RWMutex" {
				continue
			}
			for _, name := range fld.Names {
				got = append(got, name.Name)
			}
		}
		return false
	})
	if !reflect.DeepEqual(got, StoreLockOrder) {
		t.Fatalf("lockorder table drifted from store.Store's RWMutex declaration order:\n  store.go: %v\n  analyzer: %v",
			got, StoreLockOrder)
	}
}

// TestStoreGuardedByMatchesStoreDecl pins the guardedby annotation set
// against store.Store's fields: every guarded field carries exactly the
// expected clause, and every subsystem mutex in the lock order guards at
// least one field. Adding a field to Store (or rewiring a guard) must
// update this table in the same change.
func TestStoreGuardedByMatchesStoreDecl(t *testing.T) {
	want := map[string]string{
		"classifications": "catalogMu",
		"classByName":     "catalogMu",
		"users":           "catalogMu",
		"apiKeys":         "catalogMu",
		"videos":          "catalogMu",
		"campaigns":       "catalogMu",
		"images":          "imagesMu",
		"ids":             "imagesMu",
		"features":        "featMu",
		"visual":          "featMu",
		"hybrid":          "featMu",
		"annotations":     "annMu",
		"byLabel":         "annMu",
		"keywords":        "kwMu",
		"text":            "kwMu",
		"spatial":         "geoMu",
		"temporal":        "geoMu",
		"gen":             "flushMu",
		"memFreed":        "memThrottleMu",
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("..", "store", "store.go"), nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing store.go: %v", err)
	}
	got := map[string]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "Store" {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		for _, fld := range st.Fields.List {
			var groups []*ast.CommentGroup
			if fld.Doc != nil {
				groups = append(groups, fld.Doc)
			}
			if fld.Comment != nil {
				groups = append(groups, fld.Comment)
			}
			for _, cg := range groups {
				for _, c := range cg.List {
					rest, ok := annotationLine(c.Text, guardedPrefix)
					if !ok {
						continue
					}
					spec, _, _ := strings.Cut(rest, " ")
					for _, name := range fld.Names {
						got[name.Name] = spec
					}
				}
			}
		}
		return false
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("guardedby annotations drifted from the pinned lock map:\n  store.go: %v\n  pinned:   %v", got, want)
	}
	guardedMus := map[string]bool{}
	for _, spec := range got {
		for _, mu := range strings.Split(spec, "|") {
			guardedMus[mu] = true
		}
	}
	for _, mu := range StoreLockOrder {
		if !guardedMus[mu] {
			t.Errorf("subsystem lock %s guards no annotated field", mu)
		}
	}
}

// TestModuleIsLintClean runs the full production configuration over the
// whole module — the same gate ci.sh enforces — so a regression shows up
// in `go test` too, with the findings in the failure message.
func TestModuleIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module; skipped in -short")
	}
	pkgs, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if findings := Run(pkgs, DefaultAnalyzers()); len(findings) > 0 {
		t.Errorf("tree is not lint-clean (%d findings):\n%s", len(findings), dump(findings))
	}
}
