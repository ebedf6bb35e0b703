// Package waitring implements the low-latency consumer blocking mechanism of
// ZMSQ §3.6: a circular buffer of futex-like words, indexed by two atomic
// operation counters, so that sleeping consumers and waking producers are
// dispersed across many cache lines and no single wake point is contended.
//
// Queue composes that ring around a core.Queue from outside: it signals
// after every insert and takes a ticket before every blocking extract,
// which is all the §3.6 correctness argument needs. The queue itself
// declares nothing about waiting.
//
// The paper uses Linux futexes directly. Go's standard library does not
// expose futex(2) portably, so futex here emulates the needed subset — a
// 32-bit word supporting atomic reads/CAS from "userspace" plus
// Wait(expected) / Wake — with a mutex and condition variable per word. The
// protocol built on top is unchanged: the word's low bit says whether any
// thread is sleeping on it (so the common signal path is a single atomic
// read), and wait/wake compare the whole word to resolve races exactly as a
// kernel futex would.
package waitring

import (
	"sync"
	"sync/atomic"
)

// futex is a 32-bit word with futex-style wait/wake semantics.
//
// Wait(val) blocks the caller for as long as the word's value equals val; it
// returns as soon as the value is observed to differ (or immediately if it
// already differs — the "spurious wakeup allowed, lost wakeup forbidden"
// contract of futex(2)). Wake wakes all current sleepers; waking in bulk is
// what the ring design wants, since it bounds sleepers per word by spreading
// them over the ring.
type futex struct {
	word atomic.Uint32
	mu   sync.Mutex
	cond sync.Cond
	once sync.Once
}

func (f *futex) init() {
	f.once.Do(func() { f.cond.L = &f.mu })
}

// Load atomically reads the word.
func (f *futex) Load() uint32 { return f.word.Load() }

// CompareAndSwap atomically replaces old with new and reports success.
func (f *futex) CompareAndSwap(old, new uint32) bool {
	return f.word.CompareAndSwap(old, new)
}

// Wait blocks while the word equals val. The check and the transition to
// sleeping are atomic with respect to Wake, so a Wake that follows a word
// change can never be missed.
func (f *futex) Wait(val uint32) {
	f.init()
	f.mu.Lock()
	for f.word.Load() == val {
		f.cond.Wait()
	}
	f.mu.Unlock()
}

// Wake wakes every goroutine currently blocked in Wait. Callers change the
// word first, then call Wake; sleepers re-check the word under the lock, so
// the pair cannot lose a wakeup.
func (f *futex) Wake() {
	f.init()
	f.mu.Lock()
	// Empty critical section: taking the lock orders this wake after any
	// in-flight Wait's check-then-sleep transition.
	f.mu.Unlock()
	f.cond.Broadcast()
}
