package corpus

import (
	"context"
	"testing"

	"eol/internal/core"
)

// SetLocate makes runSubject call f instead of core.LocateContext until
// the test ends.
func SetLocate(t testing.TB, f func(context.Context, *core.Spec) (*core.Report, error)) {
	old := locate
	locate = f
	t.Cleanup(func() { locate = old })
}
