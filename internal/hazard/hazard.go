// Package hazard implements hazard pointers (Michael, 2004), the safe
// memory reclamation scheme the ZMSQ paper uses to avoid depending on a
// tracing garbage collector (§3.5).
//
// Go has a garbage collector, so "reclamation" here means handing retired
// objects to a reuse pool rather than calling free. The protocol is the same
// as in a non-GC language: a reader publishes a hazard pointer to an object
// before dereferencing it optimistically; a writer that retires an object
// may only hand it on for reuse once no published hazard pointer refers to
// it. It also costs what it costs there: a publication is one atomic store
// of a word, a retirement an append, and every scanThreshold retirements a
// scan snapshots the published words into a slice kept on the record and
// tests the retirees against it. Nothing on those paths allocates. That
// keeps the paper-relevant property measurable: the per-operation price of
// publishing hazard pointers and of the amortized scan, which is what
// separates the "ZMSQ" and "ZMSQ (leak)" curves in the paper's Figures 5, 7
// and 8.
//
// A Domain is typed by what it retires; what it protects may be of any
// type, because a hazard slot holds only an identity word (see ID).
//
// The package is not part of the queue product. A queue's run buffers
// recycle through core's free stacks alone, and the hazard-gated variant —
// the paper's memory-safe "ZMSQ" — plugs a Domain in from outside, through
// core.Hazards (harness.NewHazardDomain), for the cells that measure what
// the protocol costs.
package hazard

import (
	"sync/atomic"
	"unsafe"
)

// ID returns p's identity word: what Protect publishes and what a scan
// compares retirees against. It is the package's only use of unsafe, and it
// is sound because an identity is only ever compared, never turned back
// into a pointer. The collector does not see it and it keeps nothing alive:
// the retired list holds the real pointer of every retiree, and a reader
// holds the real pointer of whatever it publishes. Should a published
// object die and its address go to a new object that is then retired, a
// scan holds that retiree back longer than it needed to; it never hands
// one on early.
func ID[P any](p *P) uintptr { return uintptr(unsafe.Pointer(p)) }

// slotsPerRecord is the number of hazard pointers each record provides. The
// paper's analysis (§3.5) shows ZMSQ needs at most two hazard pointers per
// thread, plus possibly one more depending on the set implementation; three
// covers every use in this repository.
const slotsPerRecord = 3

// scanThreshold is how many retired objects a record accumulates before it
// runs a scan. Scans are O(H) where H is the total number of hazard slots,
// so amortizing one scan per threshold retirements keeps the per-retire
// cost constant.
const scanThreshold = 64

// record is one participant's hazard-pointer record. Records are linked
// into a grow-only list; a record released by its owner is marked inactive
// and re-acquired by the next participant, so the list length is bounded by
// the maximum number of concurrent participants. Only the owner touches
// retired and snap; the active flag orders one owner's writes before the
// next owner's reads.
type record[T any] struct {
	next    *record[T]
	active  atomic.Bool
	hazards [slotsPerRecord]atomic.Uintptr
	retired []*T
	snap    []uintptr // scan's snapshot of the published slots, reused
	_       [40]byte  // a record fills its 128-byte size class: no false sharing
}

// Domain is a hazard-pointer domain retiring objects of type T: a set of
// records plus the retired-object machinery. The zero value is not usable;
// call NewDomain.
type Domain[T any] struct {
	head    atomic.Pointer[record[T]]
	records atomic.Int64 // number of records ever created (for stats/tests)
	// scanHook, when non-nil, runs at the start of every reclamation scan.
	// Used by fault injection to stall scans; it must be set before the
	// domain is used concurrently and must be safe to call from any
	// goroutine that happens to run a scan.
	scanHook func()
}

// NewDomain returns an empty domain.
func NewDomain[T any]() *Domain[T] { return &Domain[T]{} }

// Records reports how many records have been allocated in the domain's
// lifetime. Used by tests to verify record reuse.
func (d *Domain[T]) Records() int64 { return d.records.Load() }

// SetScanHook installs f to run at the start of every reclamation scan.
// Fault-injection harnesses use it to stall scans; it must be called
// before the domain is used concurrently.
func (d *Domain[T]) SetScanHook(f func()) { d.scanHook = f }

// Handle is a participant's view of the domain: a record held from Get to
// Put. Handles are not safe for concurrent use; hold one per goroutine, or
// one per pooled operation context.
type Handle[T any] struct {
	d    *Domain[T]
	r    *record[T]
	done func(*T)
}

// Get acquires a handle, reusing a released record if there is one. Once no
// hazard pointer in the domain refers to an object retired through the
// handle, done is invoked on it exactly once (typically returning it to a
// free stack), on whichever goroutine runs the scan — the holder's own.
// Pair with Put.
func (d *Domain[T]) Get(done func(*T)) *Handle[T] {
	h := &Handle[T]{d: d, done: done}
	for r := d.head.Load(); r != nil; r = r.next {
		if !r.active.Load() && r.active.CompareAndSwap(false, true) {
			h.r = r
			return h
		}
	}
	r := &record[T]{
		retired: make([]*T, 0, scanThreshold),
		snap:    make([]uintptr, 0, 2*slotsPerRecord),
	}
	r.active.Store(true)
	for {
		head := d.head.Load()
		r.next = head
		if d.head.CompareAndSwap(head, r) {
			d.records.Add(1)
			h.r = r
			return h
		}
	}
}

// Put clears the handle's hazard slots, scans once more so that everything
// reclaimable goes to done, and releases the record. Retirees some other
// participant still protects stay on the record and pass to its next
// holder. The handle must not be used afterwards.
func (d *Domain[T]) Put(h *Handle[T]) {
	for i := range h.r.hazards {
		h.r.hazards[i].Store(0)
	}
	if len(h.r.retired) > 0 {
		h.scan()
	}
	h.r.active.Store(false)
	h.r = nil
}

// Release is Put on the handle's own domain: the shape in which a handle
// plugs into a queue's allocation domain (core.Hazards), whose contexts
// hold only the handle.
func (h *Handle[T]) Release() { h.d.Put(h) }

// Protect publishes id (see ID) in hazard slot i. The caller must
// re-validate its source pointer afterwards (the standard hazard-pointer
// load protocol): publish, re-read the source, retry if it changed.
func (h *Handle[T]) Protect(i int, id uintptr) { h.r.hazards[i].Store(id) }

// Clear empties hazard slot i.
func (h *Handle[T]) Clear(i int) { h.r.hazards[i].Store(0) }

// Retire records that p is no longer reachable from the shared structure;
// it goes to the handle's done once a scan finds no hazard pointer on it.
func (h *Handle[T]) Retire(p *T) {
	h.r.retired = append(h.r.retired, p)
	if len(h.r.retired) >= scanThreshold {
		h.scan()
	}
}

// scan applies the classic two-phase scan: snapshot all published hazard
// pointers, then reclaim every retired object not in the snapshot. The
// snapshot holds only non-empty slots — a few words, since a participant
// between operations publishes nothing — so each retiree is tested by a
// linear pass over it.
func (h *Handle[T]) scan() {
	if hook := h.d.scanHook; hook != nil {
		hook()
	}
	r := h.r
	snap := r.snap[:0]
	for o := h.d.head.Load(); o != nil; o = o.next {
		for i := range o.hazards {
			if id := o.hazards[i].Load(); id != 0 {
				snap = append(snap, id)
			}
		}
	}
	r.snap = snap
	kept := r.retired[:0]
retirees:
	for _, p := range r.retired {
		id := ID(p)
		for _, s := range snap {
			if s == id {
				kept = append(kept, p)
				continue retirees
			}
		}
		h.done(p)
	}
	// Zero the tail so reclaimed entries don't pin objects via the backing
	// array.
	clear(r.retired[len(kept):])
	r.retired = kept
}
