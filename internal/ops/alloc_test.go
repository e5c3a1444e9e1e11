package ops

import (
	"testing"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/shape"
	"step/internal/tile"
)

// routeProgram builds the padded-row route of the MoE workloads over n
// shape-only rows: flags become selectors (flag-to-selector), the
// selectors route SiLU'd rows through Partition to two outputs, and
// Reassemble merges them back in selector order.
func routeProgram(t *testing.T, n int) *graph.Program {
	t.Helper()
	rows := make([]element.Element, 0, n+1)
	flags := make([]element.Element, 0, n+1)
	for i := 0; i < n; i++ {
		rows = append(rows, element.DataOf(element.TileVal{T: tile.ShapeOnly(1, 8)}))
		flags = append(flags, element.DataOf(element.Flag{B: i%3 == 0}))
	}
	rows, flags = append(rows, dn), append(flags, dn)
	g := graph.New()
	in := Map(g, "act", Source(g, "rows", shape.OfInts(n), graph.StaticTile(1, 8), rows), SiLUFn(), ComputeOpts{})
	sel := Map(g, "route", Source(g, "flags", shape.OfInts(n), graph.FlagType{}, flags), FlagToSelectorFn(), ComputeOpts{})
	sels := Broadcast(g, "sel.bc", sel, 2)
	parts := Partition(g, "part", in, sels[0], 0, 2)
	Sink(g, "out", Reassemble(g, "merge", parts, sels[1], 0))
	prog, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestRouteAllocBudget guards the per-element cost of the shape-only
// route path: interned shape-only tiles, prebuilt flag-to-selector
// routes, and the route operators' reused buffers keep it at zero
// allocations per element. A run's allocations may differ between n and
// 4n rows only by allocator jitter (0.01 per element); each of those
// costs reintroduced adds at least one allocation per element.
func TestRouteAllocBudget(t *testing.T) {
	const n = 2000
	allocs := func(rows int) float64 {
		prog := routeProgram(t, rows)
		run := func() {
			if _, err := prog.Run(); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pooled slabs
		return testing.AllocsPerRun(5, run)
	}
	small, large := allocs(n), allocs(4*n)
	t.Logf("%d rows: %.1f allocs/run; %d rows: %.1f", n, small, 4*n, large)
	if grown, budget := large-small, 0.01*3*n; grown > budget {
		t.Fatalf("route of %d rows: %.1f allocs/run; of %d rows: %.1f (+%.1f for %d more rows, budget %.1f)",
			n, small, 4*n, large, grown, 3*n, budget)
	}
}
