package experiment

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestSetStatsReproducible: sec32's plain cell, run three times at one
// seed, reads the same set-size distribution each time, while three other
// goroutines wake up and allocate beside it. Unpinned, a move to another
// P (or two collections) rebuilds the queue's pooled context with a new
// RNG seed, and the sizes drift.
func TestSetStatsReproducible(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops contexts at random under the race detector")
	}
	spec, err := LoadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	ex := *spec.Experiment("sec32")
	ex.Variants = ex.Variants[:1]
	ex.Ops = 50000
	if ex.Variants[0].Name != "plain" {
		t.Fatalf("sec32's first variant is %q, want plain", ex.Variants[0].Name)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sink []byte
			for {
				select {
				case <-stop:
					_ = sink
					return
				default:
				}
				sink = make([]byte, 16<<10)
				time.Sleep(50 * time.Microsecond)
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	var first CellResult
	for i := 0; i < 3; i++ {
		cells, err := runSetStats(&ex, spec.Scales["small"], Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = cells[0]
			continue
		}
		if got := cells[0]; got.Value != first.Value || !reflect.DeepEqual(got.Extra, first.Extra) {
			t.Errorf("pass %d read mean %v %v, pass 0 read %v %v", i, got.Value, got.Extra, first.Value, first.Extra)
		}
	}
}
