package scenario

import (
	"fmt"

	"step/internal/graph"
	"step/internal/harness"
	"step/internal/sched"
	"step/internal/trace"
	"step/internal/workloads"
)

// TilingPoint is one design point of a static-vs-dynamic MoE tiling
// sweep (the Figs. 9/10/19/20 shape).
type TilingPoint struct {
	Label   string
	Tile    int // 0 = dynamic
	Cycles  uint64
	Onchip  int64
	Traffic int64
}

// TilingSweep measures static tile sizes plus dynamic tiling for one
// model and batch size — a one-model moe-tiling sweep under the
// auto dynamic cap, run on the suite's pool. Feeds the Fig. 17
// matched-tile derivation.
func TilingSweep(s harness.Suite, model workloads.ModelConfig, batch int, tiles []int) ([]TilingPoint, TilingPoint, error) {
	sp, err := Spec{
		ID: "tiling-sweep", Kind: KindMoETiling,
		Models: []ModelSpec{{Config: &model}}, Batch: batch, Tiles: tiles,
	}.Canonicalize()
	if err != nil {
		return nil, TilingPoint{}, err
	}
	p, err := moeTilingPlan(sp, s)
	if err != nil {
		return nil, TilingPoint{}, err
	}
	pts, err := harness.ParMap(s, p.points, p.point)
	if err != nil {
		return nil, TilingPoint{}, err
	}
	return pts[:len(tiles)], pts[len(tiles)], nil
}

// moeTilingPlan compiles a moe-tiling spec as one flat grid: point
// i*(tiles+1)+j is point j of model i — the static tiles in spec order,
// the dynamic point last. One point is one table row, and every point
// re-derives its expert routing from (batch, model, seed), so points
// are self-contained and individually dispatchable to fabric workers.
// Pareto headline notes render from the collected results.
func moeTilingPlan(sp Spec, s harness.Suite) (plan[TilingPoint], error) {
	models, err := sp.resolveModels()
	if err != nil {
		return plan[TilingPoint]{}, err
	}
	tiles := sp.Tiles
	if s.Quick && len(sp.QuickTiles) > 0 {
		tiles = sp.QuickTiles
	}
	perModel := len(tiles) + 1
	return plan[TilingPoint]{
		header: []string{"Model", "Schedule", "Cycles", "OnchipBytes", "TrafficBytes"},
		points: len(models) * perModel,
		group:  1,
		point: func(idx int) (TilingPoint, error) {
			model, j := models[idx/perModel], idx%perModel
			// Routing is deterministic in (batch, experts, topK, skew,
			// seed): re-sampling per point yields the identical trace a
			// shared sample would.
			routing, err := trace.SampleExpertRouting(sp.Batch, model.NumExperts, model.TopK, trace.SkewHeavy, s.Seed)
			if err != nil {
				return TilingPoint{}, err
			}
			cfg := workloads.MoELayerConfig{
				Model: model, Batch: sp.Batch, Dynamic: j == len(tiles), DynamicCap: sp.DynamicCap,
				Routing: routing, Seed: s.Seed,
			}
			label := "dynamic"
			if !cfg.Dynamic {
				cfg.TileSize = tiles[j]
				label = fmt.Sprintf("tile=%d", cfg.TileSize)
			}
			l, err := workloads.BuildMoELayer(cfg)
			if err != nil {
				return TilingPoint{}, err
			}
			sess, err := s.Run(l.Program, graph.WithSeed(s.Seed))
			if err != nil {
				return TilingPoint{}, err
			}
			oc, err := l.OnchipBytes()
			if err != nil {
				return TilingPoint{}, err
			}
			return TilingPoint{
				Label: label, Tile: cfg.TileSize,
				Cycles: uint64(sess.Result.Cycles), Onchip: oc, Traffic: sess.Result.OffchipTrafficBytes,
			}, nil
		},
		row: func(idx int, group []TilingPoint) ([]any, map[string]string) {
			name, p := models[idx/perModel].Name, group[0]
			return []any{name, p.Label, p.Cycles, p.Onchip, p.Traffic},
				map[string]string{"model": name, "schedule": p.Label}
		},
		notes: func(all []TilingPoint) ([]string, error) {
			metric := "speedup"
			if sp.UseTraffic {
				metric = "traffic saving"
			}
			pareto := func(p TilingPoint) sched.Point {
				y := float64(p.Cycles)
				if sp.UseTraffic {
					y = float64(p.Traffic)
				}
				return sched.Point{Label: p.Label, Cycles: y, Mem: float64(p.Onchip)}
			}
			var notes []string
			for mi, model := range models {
				var base []sched.Point
				for _, p := range all[mi*perModel : mi*perModel+len(tiles)] {
					base = append(base, pareto(p))
				}
				dp := pareto(all[mi*perModel+len(tiles)])
				pid, err := sched.PID(dp, base)
				if err != nil {
					return nil, err
				}
				sped, ms, err := sched.ImprovementVsClosest(dp, base)
				if err != nil {
					return nil, err
				}
				notes = append(notes, fmt.Sprintf("%s: PID=%.2fx; %s vs memory-matched static %.2fx; memory saving vs perf-matched static %.2fx",
					model.Name, pid, metric, sped, ms))
			}
			return notes, nil
		},
	}, nil
}
