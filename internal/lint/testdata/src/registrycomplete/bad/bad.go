// Fixture: an op constructor the op table misses.
package ops

type Graph struct{}

type Stream struct{}

type DecodeCtx struct {
	G    *Graph
	Name string
}

type opKind[A any] struct{ name string }

func registerOp[A any](name string, nIn int, build func(dc *DecodeCtx, a A) (*Stream, error)) opKind[A] {
	return opKind[A]{name}
}

// Source is in the op table below.
func Source(g *Graph, name string) *Stream { return nil }

// Orphan has no op-table entry and no suppression.
func Orphan(g *Graph, name string) *Stream { return nil }

var sourceKind opKind[struct{}]

func init() {
	sourceKind = registerOp("source", 0, func(dc *DecodeCtx, _ struct{}) (*Stream, error) {
		return Source(dc.G, dc.Name), nil
	})
}
