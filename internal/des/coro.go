//go:build !race

package des

import "iter"

// pull starts a process coroutine for the sequential engine (see
// coro_race.go for the race-detector build).
func pull(body iter.Seq[struct{}]) (next func() (struct{}, bool), stop func()) {
	return iter.Pull(body)
}
