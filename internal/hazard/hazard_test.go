package hazard

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// obj is a retiree. pins counts readers that hold it published and
// validated; done counts reclamations.
type obj struct {
	v    int
	pins atomic.Int32
	done atomic.Int32
}

// collect returns a done callback that appends to a slice, and the slice.
func collect() (func(*obj), *[]*obj) {
	var got []*obj
	return func(o *obj) { got = append(got, o) }, &got
}

func discard(*obj) {}

func TestProtectBlocksReclamation(t *testing.T) {
	d := NewDomain[obj]()
	reader := d.Get(discard)
	done, reclaimed := collect()
	writer := d.Get(done)

	o := &obj{v: 1}
	reader.Protect(0, ID(o))
	writer.Retire(o)
	writer.Flush()
	if len(*reclaimed) != 0 {
		t.Fatal("object reclaimed while protected")
	}

	reader.Clear(0)
	writer.Flush()
	if !slices.Contains(*reclaimed, o) {
		t.Fatal("object not reclaimed after protection cleared")
	}
	d.Put(reader)
	d.Put(writer)
}

func TestPutClearsHazards(t *testing.T) {
	d := NewDomain[obj]()
	reader := d.Get(discard)
	o := &obj{}
	reader.Protect(0, ID(o))
	d.Put(reader)

	done, reclaimed := collect()
	writer := d.Get(done)
	writer.Retire(o)
	writer.Flush()
	if !slices.Contains(*reclaimed, o) {
		t.Fatal("Put did not clear hazard slots")
	}
	d.Put(writer)
}

// TestPutHandsRetireesOn checks both halves of a release: what is
// reclaimable goes to the releasing handle's done, and what another
// participant still protects stays on the record for its next holder.
func TestPutHandsRetireesOn(t *testing.T) {
	d := NewDomain[obj]()
	reader := d.Get(discard)
	held, free := &obj{v: 1}, &obj{v: 2}
	reader.Protect(0, ID(held))

	done1, got1 := collect()
	w1 := d.Get(done1)
	w1.Retire(held)
	w1.Retire(free)
	d.Put(w1)
	if len(*got1) != 1 || (*got1)[0] != free {
		t.Fatalf("Put reclaimed %d objects, want only the unprotected one", len(*got1))
	}

	done2, got2 := collect()
	w2 := d.Get(done2) // takes over w1's record
	if d.Records() != 2 {
		t.Fatalf("domain has %d records, want 2 (released record reused)", d.Records())
	}
	if len(w2.r.retired) != 1 {
		t.Fatalf("new holder inherited %d retirees, want 1", len(w2.r.retired))
	}
	reader.Clear(0)
	w2.Flush()
	if len(*got2) != 1 || (*got2)[0] != held {
		t.Fatal("inherited retiree not reclaimed by the record's next holder")
	}
	d.Put(w2)
	d.Put(reader)
}

func TestRetireReclaimsExactlyOnce(t *testing.T) {
	d := NewDomain[obj]()
	h := d.Get(func(o *obj) { o.done.Add(1) })
	o := &obj{}
	h.Retire(o)
	h.Flush()
	h.Flush()
	if c := o.done.Load(); c != 1 {
		t.Fatalf("done called %d times, want 1", c)
	}
	d.Put(h)
}

func TestScanTriggersAtThreshold(t *testing.T) {
	d := NewDomain[obj]()
	scans := 0
	d.SetScanHook(func() { scans++ })
	done, reclaimed := collect()
	h := d.Get(done)
	for i := 0; i < scanThreshold; i++ {
		if scans != 0 {
			t.Fatalf("scan ran after %d retirements, before the threshold", i)
		}
		h.Retire(&obj{v: i})
	}
	// The threshold-th Retire runs a scan; nothing is protected, so all
	// retirements should have been reclaimed without an explicit Flush.
	if scans != 1 || len(*reclaimed) != scanThreshold {
		t.Fatalf("%d scans reclaimed %d at threshold, want 1 scan and %d", scans, len(*reclaimed), scanThreshold)
	}
	if len(h.r.retired) != 0 {
		t.Fatalf("retired list has %d entries after scan", len(h.r.retired))
	}
	d.Put(h)
}

func TestMultipleSlots(t *testing.T) {
	d := NewDomain[obj]()
	reader := d.Get(discard)
	done, reclaimed := collect()
	writer := d.Get(done)
	objs := [slotsPerRecord]*obj{{v: 0}, {v: 1}, {v: 2}}
	for i, o := range objs {
		reader.Protect(i, ID(o))
		writer.Retire(o)
	}
	writer.Flush()
	if len(*reclaimed) != 0 {
		t.Fatalf("%d objects reclaimed while protected", len(*reclaimed))
	}
	reader.Clear(1)
	writer.Flush()
	if len(*reclaimed) != 1 || (*reclaimed)[0] != objs[1] {
		t.Fatalf("after clearing slot 1: reclaimed %d objects, want exactly the one it held", len(*reclaimed))
	}
	d.Put(reader)
	d.Put(writer)
}

func TestRecordReuse(t *testing.T) {
	d := NewDomain[obj]()
	// Sequential get/put must reuse a single record, and two overlapping
	// holders two.
	for i := 0; i < 100; i++ {
		h := d.Get(discard)
		d.Put(h)
	}
	if n := d.Records(); n != 1 {
		t.Fatalf("allocated %d records for sequential use, want 1", n)
	}
	for i := 0; i < 100; i++ {
		a, b := d.Get(discard), d.Get(discard)
		d.Put(a)
		d.Put(b)
	}
	if n := d.Records(); n != 2 {
		t.Fatalf("allocated %d records for two overlapping holders, want 2", n)
	}
}

// TestStressProtectRetire is the protocol's property under contention:
// readers publish-and-validate objects out of a shared set of cells while
// writers swap the cells and retire what they displaced. done must never
// fire for an object while a reader holds it published and validated, must
// fire exactly once for every retiree once the readers have let go, and
// Flush must then drain every retired list. Run it with -race.
func TestStressProtectRetire(t *testing.T) {
	const (
		readers = 4
		writers = 4
		cells   = 8
	)
	iters := 20000
	if testing.Short() {
		iters = 4000
	}
	d := NewDomain[obj]()
	var set [cells]atomic.Pointer[obj]
	for i := range set {
		set[i].Store(&obj{})
	}
	var violations, reclaimed atomic.Int64
	done := func(o *obj) {
		if o.pins.Load() != 0 {
			violations.Add(1) // fired while a slot publishes it
		}
		if o.done.Add(1) != 1 {
			violations.Add(1) // fired twice
		}
		reclaimed.Add(1)
	}

	var readersDone, writersDone sync.WaitGroup
	for g := 0; g < readers; g++ {
		readersDone.Add(1)
		go func(g int) {
			defer readersDone.Done()
			h := d.Get(discard)
			defer d.Put(h)
			for i := 0; i < iters; i++ {
				cell := &set[(i+g)%cells]
				slot := i % slotsPerRecord
				// Hazard-pointer load protocol: publish, then validate.
				o := cell.Load()
				for {
					h.Protect(slot, ID(o))
					if again := cell.Load(); again != o {
						o = again
						continue
					}
					break
				}
				// o was still reachable after the publication, so its
				// retirement comes later and every scan sees the slot.
				o.pins.Add(1)
				if o.done.Load() != 0 {
					violations.Add(1)
				}
				o.pins.Add(-1)
				h.Clear(slot)
			}
		}(g)
	}
	handles := make([]*Handle[obj], writers)
	for g := range handles {
		handles[g] = d.Get(done)
		writersDone.Add(1)
		go func(g int) {
			defer writersDone.Done()
			for i := 0; i < iters; i++ {
				handles[g].Retire(set[(i*7+g)%cells].Swap(&obj{v: i}))
			}
		}(g)
	}
	readersDone.Wait()
	writersDone.Wait()
	// Every reader has put its handle, so nothing is published any more.
	for _, h := range handles {
		h.Flush()
		if n := len(h.r.retired); n != 0 {
			t.Errorf("Flush left %d retirees with no hazard pointer published", n)
		}
		d.Put(h)
	}
	if v := violations.Load(); v != 0 {
		t.Errorf("%d objects reclaimed while published, or reclaimed twice", v)
	}
	if got, want := reclaimed.Load(), int64(writers*iters); got != want {
		t.Errorf("done fired %d times for %d retirements", got, want)
	}
	if n := d.Records(); n > readers+writers {
		t.Errorf("%d records for %d participants", n, readers+writers)
	}
}

func TestFlushOnEmptyHandle(t *testing.T) {
	d := NewDomain[obj]()
	h := d.Get(discard)
	h.Flush() // must not panic or loop
	d.Put(h)
}

func TestQuickNeverReclaimProtected(t *testing.T) {
	d := NewDomain[obj]()
	f := func(protectIdx uint8, objCount uint8) bool {
		n := int(objCount%16) + 2
		idx := int(protectIdx) % n
		reader := d.Get(discard)
		done, reclaimed := collect()
		writer := d.Get(done)
		defer d.Put(reader)
		defer d.Put(writer)

		objs := make([]*obj, n)
		for i := range objs {
			objs[i] = &obj{v: i}
		}
		reader.Protect(0, ID(objs[idx]))
		for _, o := range objs {
			writer.Retire(o)
		}
		writer.Flush()
		// Exactly the unprotected objects are reclaimed.
		if len(*reclaimed) != n-1 || slices.Contains(*reclaimed, objs[idx]) {
			return false
		}
		reader.Clear(0)
		writer.Flush()
		return slices.Contains(*reclaimed, objs[idx])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProtectClearRetireDoNotAllocate(t *testing.T) {
	d := NewDomain[obj]()
	h := d.Get(discard)
	defer d.Put(h)
	o := &obj{}
	if got := testing.AllocsPerRun(1000, func() {
		h.Protect(0, ID(o))
		h.Clear(0)
		h.Retire(o) // a scan every scanThreshold runs
	}); got != 0 {
		t.Fatalf("Protect+Clear+Retire allocate %v per run, want 0", got)
	}
}

// BenchmarkProtectClear is the per-probe cost of the protocol: one
// publication and one clear.
func BenchmarkProtectClear(b *testing.B) {
	d := NewDomain[obj]()
	h := d.Get(discard)
	defer d.Put(h)
	id := ID(&obj{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Protect(0, id)
		h.Clear(0)
	}
}

// BenchmarkRetireScan is the per-retirement cost with the amortized scan
// included, against a domain of eight records of which four publish, about
// what a scan meets in a queue in use. The retirees come from a ring
// allocated up front, as lnodes in a steady queue do.
func BenchmarkRetireScan(b *testing.B) {
	d := NewDomain[obj]()
	others := make([]*Handle[obj], 8)
	for i := range others {
		others[i] = d.Get(discard)
		if i%2 == 0 {
			others[i].Protect(0, ID(&obj{}))
			others[i].Protect(1, ID(&obj{}))
		}
	}
	ring := make([]obj, 2*scanThreshold)
	h := d.Get(discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Retire(&ring[i%len(ring)])
	}
	b.StopTimer()
	d.Put(h)
	for _, o := range others {
		d.Put(o)
	}
}

// Flush runs scans until the handle's retired list is empty or stops
// shrinking (i.e. every remaining object is still protected), so a test
// drains retirements deterministically.
func (h *Handle[T]) Flush() {
	for {
		before := len(h.r.retired)
		if before == 0 {
			return
		}
		h.scan()
		if len(h.r.retired) == before {
			return
		}
	}
}
