package core

import (
	"sync"
	"testing"
	"unsafe"
)

func TestLockKindString(t *testing.T) {
	cases := map[LockKind]string{LockStd: "std", LockTAS: "tas", LockTATAS: "tatas", LockKind(99): "LockKind(99)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("LockKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func testMutualExclusion(t *testing.T, k LockKind) {
	t.Helper()
	l := &nodeLock{kind: k}
	const goroutines = 8
	const iters = 5000
	counter := 0
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d (lost updates)", counter, goroutines*iters)
	}
}

func testTryLockSemantics(t *testing.T, k LockKind) {
	t.Helper()
	l := &nodeLock{kind: k}
	if !l.TryLock() {
		t.Fatal("TryLock on fresh lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock succeeded while lock was held")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock after Unlock failed")
	}
	l.Unlock()
}

func TestNodeLockStd(t *testing.T) {
	testMutualExclusion(t, LockStd)
	testTryLockSemantics(t, LockStd)
}

func TestNodeLockTAS(t *testing.T) {
	testMutualExclusion(t, LockTAS)
	testTryLockSemantics(t, LockTAS)
}

func TestNodeLockTATAS(t *testing.T) {
	testMutualExclusion(t, LockTATAS)
	testTryLockSemantics(t, LockTATAS)
}

func TestContendedTryLockEventuallySucceeds(t *testing.T) {
	for _, k := range []LockKind{LockStd, LockTAS, LockTATAS} {
		l := &nodeLock{kind: k}
		done := make(chan struct{})
		go func() {
			for i := 0; i < 1000; i++ {
				l.Lock()
				l.Unlock()
			}
			close(done)
		}()
		acquired := 0
		for acquired < 100 {
			if l.TryLock() {
				acquired++
				l.Unlock()
			}
		}
		<-done
	}
}

// TestTNodeLayout pins the node layout: the lock and the list header live
// inline, so a TNode is one 64-byte object whatever V is; every node's
// fields, all but the trailing pad, sit on one cache line of every level's
// array; and a list-mode level is one allocation, its array: no lock
// objects and no set headers.
func TestTNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(tnode[struct{}]{}); got != 64 {
		t.Errorf("unsafe.Sizeof(tnode[struct{}]) = %d, want 64", got)
	}
	if got := unsafe.Sizeof(tnode[[]byte]{}); got != 64 {
		t.Errorf("unsafe.Sizeof(tnode[[]byte]) = %d, want 64", got)
	}
	q := New[struct{}](DefaultConfig())
	defer q.Close()
	fields := unsafe.Offsetof(tnode[struct{}]{}.count) + 8
	for n := 1; n <= 1<<12; n *= 2 {
		if p := uintptr(unsafe.Pointer(&q.newLevel(n)[0])); p%64+fields > 64 {
			t.Errorf("newLevel(%d) starts at %#x: a node's %d bytes of fields straddle two cache lines", n, p, fields)
		}
	}
	const n = 256
	if got := testing.AllocsPerRun(10, func() { q.newLevel(n) }); got != 1 {
		t.Errorf("newLevel(%d) allocates %v objects, want 1 (the array)", n, got)
	}
}

func benchLock(b *testing.B, k LockKind) {
	l := &nodeLock{kind: k}
	counter := 0
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.Lock()
			counter++
			l.Unlock()
		}
	})
	_ = counter
}

func BenchmarkLockStd(b *testing.B)   { benchLock(b, LockStd) }
func BenchmarkLockTAS(b *testing.B)   { benchLock(b, LockTAS) }
func BenchmarkLockTATAS(b *testing.B) { benchLock(b, LockTATAS) }
