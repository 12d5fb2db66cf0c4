package parallel

import (
	"runtime"
	"sync"
)

// maxIdleBytes bounds the footprint of one idle FreeList item: scratch grown
// past it by an unusually large call is left to the collector rather than
// held for reuse.
const maxIdleBytes = 256 << 10

// FreeList is a bounded stack of reusable scratch shared by a process's
// goroutines: a trade round's records, a Shapley fan-out's state, a
// least-squares workspace. Get hands out an idle item, or a zero one when
// none is idle, and the item belongs to the caller alone until it calls
// Put.
//
// Unlike sync.Pool, a FreeList never drops an item it has room for — not
// at a garbage collection, not when a goroutine moves to another
// processor, not at random under the race detector — so a hot path that
// reuses its scratch allocates the same on every call, which the
// per-trade allocation tests pin. In exchange it holds what it keeps: at
// most GOMAXPROCS idle items of at most maxIdleBytes each. The zero value
// is an empty list.
type FreeList[T any] struct {
	mu   sync.Mutex
	idle []*T
}

// Get returns an idle item, or a new zero item when none is idle.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.idle)
	if n == 0 {
		return new(T)
	}
	x := l.idle[n-1]
	l.idle[n-1] = nil
	l.idle = l.idle[:n-1]
	return x
}

// Put returns x for reuse; bytes is its footprint. The caller must not
// touch x afterwards. x is dropped instead when bytes exceeds maxIdleBytes
// or GOMAXPROCS items are already idle.
func (l *FreeList[T]) Put(x *T, bytes int) {
	if bytes > maxIdleBytes {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.idle) < runtime.GOMAXPROCS(0) {
		l.idle = append(l.idle, x)
	}
}
