// Fixture: a complete op table plus a suppressed composite.
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

// Source is built by its kind's build below.
func Source(g *Graph, name string) *Stream { return nil }

// Scan is named, not called, in its kind's build below.
func Scan(g *Graph, name string) *Stream { return nil }

// Combo is a composite convenience constructor.
//
//lint:allow registrycomplete composite convenience; its IR spelling is the source node it expands to
func Combo(g *Graph, name string) *Stream { return Source(g, name) }

// rebuild returns a build that calls mk.
func rebuild(mk func(*Graph, string) *Stream) func(*DecodeCtx, struct{}) (*Stream, error) {
	return func(dc *DecodeCtx, _ struct{}) (*Stream, error) { return mk(dc.G, dc.Name), nil }
}

var sourceKind, scanKind opKind[struct{}]

func init() {
	sourceKind = registerOp("source", 0, func(dc *DecodeCtx, _ struct{}) (*Stream, error) {
		return Source(dc.G, dc.Name), nil
	})
	scanKind = registerOp("scan", 1, rebuild(Scan))
}
