// Fixture: every library function resolves through the registry.
package ops

type MapFn struct {
	Name  string
	Apply func(v int) int
}

type FlatMapFn struct{ Name string }

func registerFn[A any, F MapFn | FlatMapFn](name string, check func(A) error, build func(A) F) func(A) F {
	return build
}

type none struct{}

var doubleFn = registerFn("double", nil, func(none) MapFn {
	return MapFn{Apply: func(v int) int { return 2 * v }}
})

var splitFn = registerFn[int, FlatMapFn]("split", nil, func(n int) FlatMapFn {
	return FlatMapFn{}
})

// DoubleFn resolves through the registry.
func DoubleFn() MapFn { return doubleFn(none{}) }

// SplitFn resolves through the registry, with an argument.
func SplitFn(n int) FlatMapFn { return splitFn(n) }

// helper is unexported, so it is not a library function.
func helper() MapFn { return MapFn{} }
