package patterns

import (
	"fmt"
	"slices"

	"github.com/scriptabs/goscript/internal/core"
)

// scripts is the library by name: each key is the name the definition its
// constructor builds answers to — what a host serving it says in HELLO-ACK,
// announces to a registry and holds a client's EnrollerConfig.Script to. n is
// whatever the pattern scales by (recipients, parties, workers, managers, or
// buffer capacity).
var scripts = map[string]func(n int) core.Definition{
	"star_broadcast":     StarBroadcast,
	"pipeline_broadcast": PipelineBroadcast,
	"tree_broadcast":     func(n int) core.Definition { return TreeBroadcast(n, 2) },
	"barrier":            Barrier,
	"scatter_gather":     ScatterGather,
	"bounded_buffer":     BoundedBuffer,
	"membership_change":  func(int) core.Definition { return MembershipChange() },

	"lock_manager_one_read_all_write":         func(n int) core.Definition { return LockManager(n, OneReadAllWrite()) },
	"lock_manager_guarded_one_read_all_write": func(n int) core.Definition { return LockManagerGuarded(n, OneReadAllWrite()) },
}

// ByName constructs the named pattern definition with size parameter n — the
// lookup cmd/scriptd uses to serve a script chosen by flag.
func ByName(name string, n int) (core.Definition, error) {
	mk, ok := scripts[name]
	if !ok {
		return core.Definition{}, fmt.Errorf("patterns: unknown script %q (have %v)", name, Names())
	}
	return mk(n), nil
}

// Names lists the scripts ByName can construct, sorted.
func Names() []string {
	names := make([]string, 0, len(scripts))
	for name := range scripts {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}
