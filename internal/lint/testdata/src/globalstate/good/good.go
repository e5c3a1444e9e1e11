// Fixture: package-level state the determinism analyzer must not flag.
package workloads

import "sync"

// table is filled by its initializer and by init, then only read.
var table = map[string]int{"a": 1}

func init() { table["b"] = 2 }

// Lookup reads package-level state.
func Lookup(k string) int { return table[k] }

// pool documents its one exception on its declaration.
//
//lint:allow determinism a pooled buffer is cleared before reuse, so no caller observes an earlier one
var pool = sync.Pool{New: func() any { return new([]int) }}

// Scratch writes the allowed pool.
func Scratch() *[]int {
	b := pool.Get().(*[]int)
	*b = (*b)[:0]
	return b
}

// Release returns a buffer to the pool.
func Release(b *[]int) { pool.Put(b) }

// Count builds its state in a local value the caller owns.
func Count(names []string) map[string]int {
	seen := map[string]int{}
	for _, n := range names {
		seen[n]++
	}
	return seen
}
