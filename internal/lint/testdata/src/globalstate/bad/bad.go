// Fixture: package-level state written outside init, which the
// determinism analyzer must flag.
package workloads

import (
	"fmt"
	"sync/atomic"
)

// counter numbers symbols process-wide, so a name depends on what the
// process built before.
var counter atomic.Int64

// Fresh draws from the counter: a pointer-receiver method is a write.
func Fresh() string { return fmt.Sprintf("D'%d", counter.Add(1)) }

var seen = map[string]bool{}

// Mark writes a package-level map.
func Mark(name string) { seen[name] = true }

var last string

// Remember assigns a package-level variable.
func Remember(s string) { last = s }
