package dsl_test

import (
	"testing"
	"time"

	"repro/internal/dsl"
	"repro/internal/dsl/designs"
)

// FuzzLoad feeds arbitrary text to the parse + check pipeline: whatever the
// input, Load must return a model or an error, never panic and never hang.
// The built-in designs seed the corpus, so mutations start inside the
// grammar and reach the checker, not only the lexer.
func FuzzLoad(f *testing.F) {
	for _, src := range []string{
		designs.Cooker,
		designs.Parking,
		designs.Avionics,
		designs.AssistedLivingTaxonomy + "\n" + designs.NightPath,
		designs.AssistedLivingTaxonomy + "\n" + designs.ActivityDigest,
		"",
		"device D { source s as Integer; }",
		"context C as Integer { when provided s from D always publish; }",
		"device",
		`"unterminated`,
		"/* unterminated comment",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _ = dsl.Load(src)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("Load did not return within 10s on %q", src)
		}
	})
}
