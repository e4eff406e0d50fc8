package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes files (path → source) under a fresh root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for path, src := range files {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestCheckDeprecatedUse mutates a miniature tree through every state the
// rule distinguishes: a deprecated identifier nobody calls, one only tests
// call, one product code still calls (through an import alias, from bench/,
// and from inside the package), and the fix for each direction.
func TestCheckDeprecatedUse(t *testing.T) {
	const pkg = `package runtime

// Option configures New.
type Option func()

// WithOld is the old spelling.
//
// Deprecated: use WithNew.
func WithOld() Option { return nil }

// WithNew is the supported spelling.
func WithNew() Option { return nil }
`
	caller := func(imp, call string) string {
		return fmt.Sprintf("package main\n\nimport %s\n\nvar _ = %s\n", imp, call)
	}
	for _, tc := range []struct {
		name  string
		files map[string]string
		want  []string // one substring per expected finding
	}{
		{"unused deprecation is fine", map[string]string{
			"internal/runtime/opt.go": pkg,
			"cmd/app/main.go":         caller(`"repro/internal/runtime"`, "runtime.WithNew()"),
		}, nil},
		{"test-only callers are exempt", map[string]string{
			"internal/runtime/opt.go":        pkg,
			"cmd/app/main_test.go":           caller(`"repro/internal/runtime"`, "runtime.WithOld()"),
			"internal/runtime/testdata/x.go": caller(`"repro/internal/runtime"`, "runtime.WithOld()"),
		}, nil},
		{"product, bench and in-package callers are findings", map[string]string{
			"internal/runtime/opt.go":   pkg,
			"internal/runtime/other.go": "package runtime\n\nvar _ = WithOld()\n",
			"cmd/app/main.go":           caller(`rt "repro/internal/runtime"`, "rt.WithOld()"),
			"bench/w.go":                caller(`"repro/internal/runtime"`, "runtime.WithOld()"),
		}, []string{"cmd/app/main.go", "bench/w.go", "internal/runtime/other.go"}},
		{"dropping the marker clears it", map[string]string{
			"internal/runtime/opt.go": strings.Replace(pkg, "// Deprecated: use WithNew.\n", "// Prefer WithNew.\n", 1),
			"cmd/app/main.go":         caller(`"repro/internal/runtime"`, "runtime.WithOld()"),
		}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			fail := func(format string, args ...any) { got = append(got, fmt.Sprintf(format, args...)) }
			if err := checkDeprecatedUse(fail, writeTree(t, tc.files)); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("findings = %q, want %d", got, len(tc.want))
			}
			for _, w := range tc.want {
				if !strings.Contains(strings.Join(got, "\n"), filepath.FromSlash(w)) {
					t.Fatalf("no finding for %s in %q", w, got)
				}
			}
		})
	}
}
