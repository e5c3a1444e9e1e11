// Fixture: library functions that bypass the function registry.
package ops

type MapFn struct {
	Name    string
	Apply   func(v int) int
	OutType func(string) string
}

type AccumFn struct{ Name string }

func registerFn[A any, F MapFn | AccumFn](name string, check func(A) error, build func(A) F) func(A) F {
	return build
}

type none struct{}

var doubleFn = registerFn("double", nil, func(none) MapFn {
	return MapFn{Apply: func(v int) int { return 2 * v }}
})

// DoubleFn resolves through the registry.
func DoubleFn() MapFn { return doubleFn(none{}) }

// TripleFn is a bare closure the IR cannot name.
func TripleFn() MapFn {
	return MapFn{Name: "triple", Apply: func(v int) int { return 3 * v }}
}

// TypedDoubleFn edits a registered function after building it.
func TypedDoubleFn() MapFn {
	f := doubleFn(none{})
	f.OutType = func(string) string { return "int" }
	return f
}

// SumFn calls a helper that is not a registry constructor.
func SumFn() AccumFn { return sum() }

func sum() AccumFn { return AccumFn{Name: "sum"} }
