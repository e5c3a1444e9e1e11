package scenario

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"sync"

	"step/internal/graph"
	"step/internal/harness"
)

// The program kind runs a user-authored program IR — any dataflow graph
// expressible in the serializable program format — through the same
// sweep/caching/serving machinery as the canned workload kinds. The
// sweep axis is the default stream FIFO depth (Depths); each grid point
// compiles nothing and builds nothing in Go: the program is
// instantiated fresh from its IR, so points are independent and tables
// are byte-identical at any worker count, same as every other kind.

// validateProgram checks a program-kind spec: the field shape
// (validateProgramFields) plus an IR that actually compiles.
func (sp Spec) validateProgram() error {
	if err := sp.validateProgramFields(); err != nil {
		return err
	}
	if _, err := sp.compileProgram(); err != nil {
		return err
	}
	return nil
}

// validateProgramFields checks everything but the IR itself: exactly
// an embedded IR (program_file is resolved by Load), no fields of the
// workload kinds, positive depths.
func (sp Spec) validateProgramFields() error {
	if sp.ProgramFile != "" {
		return fmt.Errorf("scenario %s: program_file must be resolved before validation (load the spec from a file, or embed the IR in program)", sp.ID)
	}
	if len(sp.Program) == 0 {
		return fmt.Errorf("scenario %s: program kind needs an embedded program IR", sp.ID)
	}
	if err := sp.rejectIgnoredFields(); err != nil {
		return err
	}
	for _, d := range sp.Depths {
		if d < 1 {
			return fmt.Errorf("scenario %s: non-positive depth %d", sp.ID, d)
		}
		// Channel buffers allocate eagerly per stream: an unbounded
		// depth axis would let one submission OOM the serving process.
		if d > 1<<16 {
			return fmt.Errorf("scenario %s: depth %d exceeds %d", sp.ID, d, 1<<16)
		}
	}
	return nil
}

// progCache memoizes compiled programs by the raw bytes of the
// embedded IR, and — once canonicalizeProgram has derived them — under
// the canonical bytes too, with those bytes alongside. A submission
// compiles and serializes its document once; everything after it (the
// cache key, the sweep, fabric workers) reads the canonical document
// and hits. Programs run concurrently, so one is shared across those
// callers and concurrent jobs. The map is bounded: past the cap it is
// dropped wholesale (entries are pure caches).
//
//lint:allow determinism a compiled program is a pure function of its IR bytes; a hit runs exactly as a fresh compile would
var progCache struct {
	sync.Mutex
	m map[[sha256.Size]byte]progMemo
}

const progCacheCap = 64

// progMemo is one progCache entry: a compiled program and, when known,
// its canonical IR bytes.
type progMemo struct {
	prog      *graph.Program
	canonical []byte
}

// CompileProgram compiles a raw program IR document through the
// package's memo, shared with spec validation, canonicalization, and
// execution — a service submission compiles each unique document once.
func CompileProgram(body []byte) (*graph.Program, error) {
	return Spec{ID: "program", Program: body}.compileProgram()
}

// compileProgram parses and compiles the embedded IR, memoized on the
// document bytes.
func (sp Spec) compileProgram() (*graph.Program, error) {
	m, err := sp.programMemo()
	return m.prog, err
}

// programMemo returns the progCache entry of the embedded IR, compiling
// it on a miss.
func (sp Spec) programMemo() (progMemo, error) {
	key := sha256.Sum256(sp.Program)
	progCache.Lock()
	m, ok := progCache.m[key]
	progCache.Unlock()
	if ok {
		return m, nil
	}
	ir, err := graph.ParseProgramIR(sp.Program)
	if err != nil {
		return m, fmt.Errorf("scenario %s: %w", sp.ID, err)
	}
	if m.prog, err = graph.CompileIR(ir); err != nil {
		return m, fmt.Errorf("scenario %s: %w", sp.ID, err)
	}
	memoProgram(sp.Program, m)
	return m, nil
}

// memoProgram records m as the entry of the document doc.
func memoProgram(doc []byte, m progMemo) {
	key := sha256.Sum256(doc)
	progCache.Lock()
	defer progCache.Unlock()
	if progCache.m == nil || len(progCache.m) >= progCacheCap {
		progCache.m = make(map[[sha256.Size]byte]progMemo)
	}
	progCache.m[key] = m
}

// canonicalizeProgram rewrites the embedded IR of a program-kind spec
// into canonical form: the IR is replayed through its constructors and
// re-serialized with sorted keys (so formatting and field order stop
// mattering to the cache address, while content forms like seeded
// random tiles are preserved).
func canonicalizeProgram(c *Spec) error {
	m, err := c.programMemo()
	if err != nil {
		return err
	}
	if m.canonical == nil {
		if m.canonical, err = m.prog.CanonicalJSON(); err != nil {
			return fmt.Errorf("scenario %s: %w", c.ID, err)
		}
		memoProgram(c.Program, m)
		memoProgram(m.canonical, m)
	}
	c.Program = m.canonical
	return nil
}

// programPoint is one simulated grid point of a program sweep. Fields
// are exported with JSON tags so the raw result can ship between
// fabric workers and the coordinator (see RunPoint).
type programPoint struct {
	Cycles  uint64 `json:"cycles"`
	Traffic int64  `json:"traffic"`
	Onchip  int64  `json:"onchip"`
	FLOPs   int64  `json:"flops"`
}

// programPlan instantiates the compiled IR fresh per depth-axis point.
// One point is one table row.
func programPlan(sp Spec, s harness.Suite) (plan[programPoint], error) {
	prog, err := sp.compileProgram()
	if err != nil {
		return plan[programPoint]{}, err
	}
	depths := sp.Depths
	return plan[programPoint]{
		header: []string{"Depth", "Cycles", "TrafficBytes", "PeakOnchipBytes", "FLOPs"},
		points: len(depths),
		group:  1,
		point: func(i int) (programPoint, error) {
			sess, err := s.Run(prog, graph.WithSeed(s.Seed), graph.WithChannelDepth(depths[i]))
			if err != nil {
				return programPoint{}, fmt.Errorf("scenario %s: depth %d: %w", sp.ID, depths[i], err)
			}
			res := sess.Result
			return programPoint{
				Cycles:  uint64(res.Cycles),
				Traffic: res.OffchipTrafficBytes,
				Onchip:  res.PeakOnchipBytes,
				FLOPs:   res.TotalFLOPs,
			}, nil
		},
		row: func(i int, group []programPoint) ([]any, map[string]string) {
			r := group[0]
			return []any{depths[i], r.Cycles, r.Traffic, r.Onchip, r.FLOPs},
				map[string]string{"depth": strconv.Itoa(depths[i])}
		},
		notes: func([]programPoint) ([]string, error) {
			hash, err := prog.Hash()
			if err != nil {
				return nil, err
			}
			name := prog.Name()
			if name == "" {
				name = "(unnamed)"
			}
			return []string{fmt.Sprintf("program %s: %d nodes, %d streams, ir %s",
				name, prog.NodeCount(), prog.StreamCount(), hash[:12])}, nil
		},
	}, nil
}
