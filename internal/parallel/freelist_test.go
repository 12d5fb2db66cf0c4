package parallel

import (
	"runtime"
	"sync"
	"testing"
)

type scratchItem struct{ buf []float64 }

// TestFreeListReusesWhatItKeeps: Get hands back what Put kept, last in
// first out, and a zero item once the list is empty; an oversized item and
// any item beyond GOMAXPROCS idle ones are dropped.
func TestFreeListReusesWhatItKeeps(t *testing.T) {
	var l FreeList[scratchItem]
	a := l.Get()
	if a == nil || a.buf != nil {
		t.Fatalf("empty list returned %v, want a zero item", a)
	}
	a.buf = make([]float64, 8)
	b := &scratchItem{}
	l.Put(a, 64)
	l.Put(b, 0)
	if got := l.Get(); got != b {
		t.Fatal("Get did not return the last item put")
	}
	if got := l.Get(); got != a || len(got.buf) != 8 {
		t.Fatal("Get did not return the kept item with its buffer")
	}
	l.Put(a, maxIdleBytes+1)
	if got := l.Get(); got == a {
		t.Fatal("an item above maxIdleBytes was kept")
	}

	procs := runtime.GOMAXPROCS(0)
	kept := make(map[*scratchItem]bool)
	for i := 0; i < procs+3; i++ {
		x := &scratchItem{}
		kept[x] = i < procs
		l.Put(x, 0)
	}
	for i := 0; i < procs; i++ {
		if x := l.Get(); !kept[x] {
			t.Fatalf("Get %d returned an item beyond the GOMAXPROCS bound", i)
		}
	}
	if x := l.Get(); x.buf != nil || kept[x] {
		t.Fatal("list held more than GOMAXPROCS idle items")
	}
}

// TestFreeListConcurrentOwnership: items move between goroutines through
// the list without two callers ever holding the same item. Run under -race
// in make race.
func TestFreeListConcurrentOwnership(t *testing.T) {
	var l FreeList[scratchItem]
	var (
		mu    sync.Mutex
		owned = make(map[*scratchItem]bool)
		wg    sync.WaitGroup
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				x := l.Get()
				mu.Lock()
				if owned[x] {
					mu.Unlock()
					t.Error("two goroutines hold the same item")
					return
				}
				owned[x] = true
				mu.Unlock()
				x.buf = append(x.buf[:0], float64(i))
				mu.Lock()
				delete(owned, x)
				mu.Unlock()
				l.Put(x, 8*cap(x.buf))
			}
		}()
	}
	wg.Wait()
}
