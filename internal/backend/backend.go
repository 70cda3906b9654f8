// Package backend is the registry of MiniC execution backends: the
// single place that knows every interp.Backend implementation by name.
// It exists so the layers that run programs — the commands, the eol
// facade, core, corpus — depend on one tiny package instead of
// importing internal/vm directly, and so the default lives in exactly
// one place.
//
// The bytecode VM is the default and the only production backend: every
// command, Session.Locate call and server request runs on Default. It produces
// byte-identical results to the tree-walker (the contract every
// differential lane pins down) at a fraction of the per-step cost. The
// tree-walker is the reference oracle, looked up as "tree" by tests and
// by eolbench's oracle pass (corpus.Options.Backend); the manifest
// "backend" key is validated with Lookup and otherwise ignored.
package backend

import (
	"fmt"
	"sort"
	"strings"

	"eol/internal/interp"
	"eol/internal/vm"
)

// DefaultName is the name of the default execution backend.
const DefaultName = "vm"

var registry = map[string]interp.Backend{
	"tree": interp.Tree,
	"vm":   vm.Backend,
}

// Default returns the default execution backend (the bytecode VM).
func Default() interp.Backend { return vm.Backend }

// Lookup resolves a backend by name. The empty string selects the
// default; unknown names return an error listing the valid ones.
func Lookup(name string) (interp.Backend, error) {
	if name == "" {
		name = DefaultName
	}
	if b, ok := registry[name]; ok {
		return b, nil
	}
	valid := make([]string, 0, len(registry))
	for n := range registry {
		valid = append(valid, n)
	}
	sort.Strings(valid)
	return nil, fmt.Errorf("unknown execution backend %q (valid: %s)", name, strings.Join(valid, ", "))
}
