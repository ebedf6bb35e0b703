package harness

import (
	"sync"
	"time"

	"repro/internal/core"
)

// helperInterval is the pause between the helper passes StartHelper
// drives.
const helperInterval = 200 * time.Microsecond

// StartHelper drives the §5 helper on q from outside the queue: a
// goroutine runs q.HelperPass once every helperInterval until stop is
// called or q is closed. stop waits for the goroutine to exit and returns
// how many elements its passes moved; it may be called more than once,
// and later calls return the same total.
func StartHelper[V any](q *core.Queue[V]) (stop func() int64) {
	done := make(chan struct{})
	total := make(chan int64, 1)
	go func() {
		var moved int64
		defer func() { total <- moved }()
		t := time.NewTicker(helperInterval)
		defer t.Stop()
		for !q.Closed() {
			select {
			case <-done:
				return
			case <-t.C:
				moved += int64(q.HelperPass())
			}
		}
	}()
	return sync.OnceValue(func() int64 {
		close(done)
		return <-total
	})
}
