// Package experiments regenerates every table and figure of the paper's
// evaluation: one entry per artifact in All, each producing the same
// rows/series the paper reports, runnable from the CLI (`stepctl exp`),
// from benchmarks (bench_test.go), or programmatically through RunAll.
//
// The rendering (Table) and fan-out (Suite, worker pool) substrate lives
// in internal/harness and is shared with the declarative scenario
// subsystem (internal/scenario); the pure-sweep figures (9, 10, 15, 19,
// 20) are registered here straight from their canned scenario specs so
// one code path serves both the paper registry and user-defined sweeps.
package experiments

import (
	"step/internal/harness"
	"step/internal/scenario"
)

// Table is a rendered experiment result (see harness.Table).
type Table = harness.Table

// Suite configures a run of the experiment set (see harness.Suite).
type Suite = harness.Suite

// Runner is an experiment entry point.
type Runner struct {
	ID   string
	Desc string
	Run  func(Suite) (*Table, error)
}

// fromSpec registers a canned scenario spec as a registry artifact.
func fromSpec(sp scenario.Spec, desc string) Runner {
	return Runner{sp.ID, desc, func(s Suite) (*Table, error) { return scenario.Run(sp, s) }}
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"table1", "Landscape of programming abstractions for SDAs", func(s Suite) (*Table, error) { return Table1(), nil }},
		{"fig1", "SDA vs GPU effective bandwidth (roofline reconstruction)", func(s Suite) (*Table, error) { return Figure1(), nil }},
		{"fig8", "Simulator validation vs fine-grained reference (SwiGLU tile sweep)", Figure8},
		fromSpec(scenario.Fig9(), "Dynamic tiling Pareto, batch 64"),
		fromSpec(scenario.Fig10(), "Dynamic tiling Pareto, batch 1024"),
		{"fig12", "Configuration time-multiplexing: compute utilization", Figure12},
		{"fig13", "Configuration time-multiplexing: resources", Figure13},
		{"fig14", "Dynamic parallelization vs static interleaved (KV variance)", Figure14},
		fromSpec(scenario.Fig15(), "Dynamic vs static coarse across batch sizes"),
		{"fig17", "End-to-end decoder models", Figure17},
		{"fig18", "Hierarchical tiling transformation", Figure18},
		fromSpec(scenario.Fig19(), "Off-chip traffic vs on-chip memory, batch 64"),
		fromSpec(scenario.Fig20(), "Off-chip traffic vs on-chip memory, batch 1024"),
		{"fig21", "Parallelization ablation", Figure21},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}
