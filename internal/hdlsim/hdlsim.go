// Package hdlsim is the reference simulator for the Fig. 8 validation
// experiment. The paper validates its cycle-approximate STeP simulator
// against a Bluespec SystemVerilog model running in a cycle-accurate
// BlueSim simulation; this package plays that role with an independently
// coded model at the fabric's physical granularity: the SwiGLU dataflow is
// decomposed into 16×16 physical tiles (the hierarchical-tiling
// transformation of Appendix B.2), each compute unit processes one
// physical tile with an initiation interval of one, on-chip memory units
// move one tile per cycle class, and off-chip accesses go through the same
// bank/bus HBM model.
//
// The experiment then measures the correlation between this fine-grained
// model and the operator-level STeP simulator across tile-size sweeps,
// exactly as Fig. 8 does.
package hdlsim

import (
	"fmt"

	"step/internal/des"
	"step/internal/hbm"
)

// Phys is the physical compute-tile edge length (§4.5: 16×16 BF16 tiles).
const Phys = 16

// Config describes one Fig. 8 design point.
type Config struct {
	Batch, Hidden, Inter int
	BatchTile, InterTile int
	// OnchipBytesPerCycle is the per-memory-unit bandwidth (256 in §4.5).
	OnchipBytesPerCycle int64
	// HBM configures the off-chip model.
	HBM hbm.Config
	// ComputeBWPerMatmul is the FLOPs/cycle mapped to each matmul node;
	// it determines how many physical units the node occupies.
	ComputeBWPerMatmul int64
}

// Result is the fine-grained simulation outcome.
type Result struct {
	Cycles       des.Time
	TrafficBytes int64
	// Sched is the DES engine's scheduler counters for the run.
	Sched des.SchedStats
}

// physMACCycles returns the cycle count for an m×k×n matmul mapped onto
// units physical 16×16 MAC units, II = 1 per physical tile, 16 cycles per
// 16×16×16 MAC.
func physMACCycles(m, k, n int, units int64) des.Time {
	tiles := int64(ceilDiv(m, Phys)) * int64(ceilDiv(k, Phys)) * int64(ceilDiv(n, Phys))
	cycles := tiles * Phys
	if units > 1 {
		cycles = (cycles + units - 1) / units
	}
	if cycles < 1 {
		cycles = 1
	}
	return des.Time(cycles)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Simulate runs the SwiGLU layer at physical-tile granularity and returns
// total cycles and off-chip traffic.
func Simulate(cfg Config) (Result, error) {
	if cfg.Batch%cfg.BatchTile != 0 || cfg.Inter%cfg.InterTile != 0 {
		return Result{}, fmt.Errorf("hdlsim: tiles must divide dimensions")
	}
	if cfg.OnchipBytesPerCycle <= 0 {
		cfg.OnchipBytesPerCycle = 256
	}
	if cfg.ComputeBWPerMatmul <= 0 {
		cfg.ComputeBWPerMatmul = int64(cfg.BatchTile) * 1024
	}
	// One physical unit sustains 2*16*16 FLOPs/cycle (one MAC column per
	// cycle); the allocated bandwidth maps to this many units.
	units := cfg.ComputeBWPerMatmul / (2 * Phys * Phys)
	if units < 1 {
		units = 1
	}

	sim := des.New()
	mem := hbm.New(cfg.HBM)
	nB := cfg.Batch / cfg.BatchTile
	nS := cfg.Inter / cfg.InterTile

	type work struct{ b, s int }
	xToMM := des.NewChan[work](sim, "x->mm", 2, 1)      // double-buffered x tiles
	hToMM2 := des.NewChan[work](sim, "h->mm2", 2, 1)    // h strips
	yToStore := des.NewChan[int](sim, "y->store", 2, 1) // finished y tiles

	onchip := func(bytes int64) des.Time {
		return des.Time((bytes + cfg.OnchipBytesPerCycle - 1) / cfg.OnchipBytesPerCycle)
	}
	xTileBytes := int64(cfg.BatchTile) * int64(cfg.Hidden) * 2
	w13StripBytes := int64(cfg.Hidden) * int64(cfg.InterTile) * 2
	w2StripBytes := int64(cfg.InterTile) * int64(cfg.Hidden) * 2
	hStripBytes := int64(cfg.BatchTile) * int64(cfg.InterTile) * 2
	yTileBytes := int64(cfg.BatchTile) * int64(cfg.Hidden) * 2

	// Stage 1: load x tiles.
	sim.Spawn("xload", func(p *des.Process) error {
		port := mem.NewPort()
		for b := 0; b < nB; b++ {
			port.Read(p, xTileBytes)
			p.Advance(onchip(xTileBytes))
			for s := 0; s < nS; s++ {
				xToMM.Send(p, work{b: b, s: s})
			}
		}
		xToMM.Close(p)
		return nil
	})

	// Stage 2: W1/W3 strip loads + the two gate matmuls + SiLU + multiply,
	// per (x tile, strip).
	sim.Spawn("gate", func(p *des.Process) error {
		port := mem.NewPort()
		defer hToMM2.Close(p)
		for {
			w, ok := xToMM.Recv(p)
			if !ok {
				return nil
			}
			port.Read(p, w13StripBytes) // W1 strip
			port.Read(p, w13StripBytes) // W3 strip
			// Two matmuls on separate unit groups run back to back per
			// strip; physical MACs dominate.
			p.Advance(physMACCycles(cfg.BatchTile, cfg.Hidden, cfg.InterTile, units))
			p.Advance(physMACCycles(cfg.BatchTile, cfg.Hidden, cfg.InterTile, units))
			// SiLU + elementwise gate: one pass over the h strip through
			// the vector units via on-chip memory.
			p.Advance(onchip(hStripBytes))
			hToMM2.Send(p, w)
		}
	})

	// Stage 3: W2 strip load + accumulate matmul; emits a y tile after the
	// final strip of each batch tile.
	sim.Spawn("reduce", func(p *des.Process) error {
		port := mem.NewPort()
		defer yToStore.Close(p)
		for {
			w, ok := hToMM2.Recv(p)
			if !ok {
				return nil
			}
			port.Read(p, w2StripBytes)
			p.Advance(physMACCycles(cfg.BatchTile, cfg.InterTile, cfg.Hidden, units))
			if w.s == nS-1 {
				yToStore.Send(p, w.b)
			}
		}
	})

	// Stage 4: store y tiles off-chip.
	sim.Spawn("ystore", func(p *des.Process) error {
		port := mem.NewPort()
		for {
			_, ok := yToStore.Recv(p)
			if !ok {
				return nil
			}
			p.Advance(onchip(yTileBytes))
			port.Write(p, yTileBytes)
		}
	})

	cycles, err := sim.Run()
	if err != nil {
		return Result{}, fmt.Errorf("hdlsim: %w", err)
	}
	return Result{Cycles: cycles, TrafficBytes: mem.TrafficBytes(), Sched: sim.SchedStats()}, nil
}
