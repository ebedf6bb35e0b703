package waitring

import (
	"runtime"
	"sync/atomic"
)

// defaultSlots is the default ring size. Large enough to disperse sleepers
// and wakers across distinct cache lines at the thread counts the paper
// evaluates (up to 256 consumers), small enough to stay cache-resident.
const defaultSlots = 64

// paddedFutex fills a cache line, as in the paper ("each position in the
// circular buffer contains a futex, padded to fill a cache line").
type paddedFutex struct {
	f futex
	_ [64]byte
}

// ring couples two atomic operation counters with a circular buffer of
// futexes (Listing 3 of the paper). Producers call Signal after every
// insert; consumers call Await before every extract. The counters give each
// operation a ticket; consumer ticket c may proceed once producer ticket c
// exists, i.e. once pushes > c. Consumer c sleeps on slot c mod N and
// producer p signals slot p mod N, so a matched pair always meets on the
// same slot, and the population of any one slot is 1/N of the threads.
type ring struct {
	pushes atomic.Uint64
	_      [56]byte
	pops   atomic.Uint64
	_      [56]byte
	closed atomic.Bool
	slots  []paddedFutex
	mask   uint64
	spin   int
}

// newRing returns a ring with n slots (rounded up to a power of two; n <= 0
// selects defaultSlots).
func newRing(n int) *ring {
	if n <= 0 {
		n = defaultSlots
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &ring{
		slots: make([]paddedFutex, size),
		mask:  uint64(size - 1),
		spin:  128,
	}
}

// Signal records one completed insert and wakes the consumer whose ticket it
// covers, if that consumer is sleeping. The common case — no sleeper on the
// slot — is one fetch-add plus one atomic read.
func (r *ring) Signal() {
	p := r.pushes.Add(1) - 1
	slot := &r.slots[p&r.mask].f
	for {
		cur := slot.Load()
		// Advance the slot's sequence number (upper 31 bits) and clear the
		// sleeper bit. The new value just needs to differ from every value a
		// sleeper could have gone to sleep on.
		next := (cur &^ 1) + 2
		if slot.CompareAndSwap(cur, next) {
			if cur&1 != 0 {
				slot.Wake()
			}
			return
		}
	}
}

// Await takes a consumer ticket and blocks until a matching producer ticket
// exists (pushes > ticket) or the ring is closed. It reports true when the
// ticket is covered and false when the ring was closed first. On a true
// return the caller is guaranteed, by the ticket argument in §3.6, that the
// queue holds at least one element until this caller extracts one.
func (r *ring) Await() bool {
	c := r.pops.Add(1) - 1
	if r.pushes.Load() > c {
		return true // fast path: one fetch-add, one load
	}
	// Brief spin before sleeping: the paper's trySpinBeforeBlock. Handoffs
	// arriving within a scheduling quantum are caught here without a futex
	// round trip.
	for i := 0; i < r.spin; i++ {
		if r.pushes.Load() > c {
			return true
		}
		if i%16 == 15 {
			runtime.Gosched()
		}
	}
	slot := &r.slots[c&r.mask].f
	for {
		if r.closed.Load() {
			return r.pushes.Load() > c
		}
		cur := slot.Load()
		if r.pushes.Load() > c {
			return true
		}
		if cur&1 == 0 {
			// Publish that a sleeper exists, then re-check the predicate
			// before sleeping; Signal flips the word after bumping pushes,
			// so sleeping on the sleeper-marked value cannot lose a wakeup.
			marked := cur | 1
			if !slot.CompareAndSwap(cur, marked) {
				continue
			}
			cur = marked
		}
		if r.pushes.Load() > c {
			return true
		}
		// Re-check closed after publishing the sleeper bit: Close stores the
		// flag before bumping slot words, so either this load observes the
		// flag, or Close's bump happens after our mark and Wait(cur) will
		// not block on the changed word.
		if r.closed.Load() {
			return r.pushes.Load() > c
		}
		slot.Wait(cur)
	}
}

// Close wakes every sleeper and makes subsequent Await calls return without
// blocking (true if their ticket is covered, false otherwise). It is used
// for queue shutdown so blocked consumers can observe termination.
func (r *ring) Close() {
	r.closed.Store(true)
	for i := range r.slots {
		slot := &r.slots[i].f
		for {
			cur := slot.Load()
			if slot.CompareAndSwap(cur, (cur&^1)+2) {
				break
			}
		}
		r.slots[i].f.Wake()
	}
}
