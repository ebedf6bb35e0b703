package repro_test

import (
	"fmt"
	"os"
	"sync"

	"repro"
)

// The basic lifecycle: configure, insert, extract.
func ExampleNew() {
	q := repro.New[string](repro.DefaultConfig())
	q.Insert(10, "low priority")
	q.Insert(99, "high priority")

	k, v, ok := q.TryExtractMax()
	fmt.Println(k, v, ok)
	// Output: 99 high priority true
}

// Strict mode (batch = 0) is a linearizable concurrent heap: every
// extraction returns the true maximum.
func ExampleNewStrict() {
	q := repro.NewStrict[string]()
	q.Insert(2, "second")
	q.Insert(3, "first")
	q.Insert(1, "third")
	for {
		_, v, ok := q.TryExtractMax()
		if !ok {
			break
		}
		fmt.Println(v)
	}
	// Output:
	// first
	// second
	// third
}

// Blocking mode: consumers sleep on an empty queue; Close releases them.
func ExampleNewBlocking() {
	q := repro.NewBlocking[int]()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			_, v, ok := q.ExtractMax() // sleeps until an insert or Close
			if !ok {
				return
			}
			fmt.Println("got", v)
		}
	}()
	q.Insert(7, 42)
	// Give the consumer its element, then shut down.
	for !q.Empty() {
	}
	q.Close()
	wg.Wait()
	// Output: got 42
}

// A durable queue: point Config.Durability at a directory and Open it.
// Opening always recovers what the directory holds — nothing, the first
// time; after a crash or restart, everything acknowledged, byte for byte.
func ExampleOpen() {
	dir, _ := os.MkdirTemp("", "zmsq-example-*")
	defer os.RemoveAll(dir)
	cfg := repro.DefaultConfig()
	cfg.Durability = &repro.DurabilityConfig{
		WAL: true, Dir: dir, GroupCommit: repro.DefaultGroupCommit,
	}

	q, st, err := repro.Open[[]byte](cfg, repro.BytesCodec{})
	if err != nil {
		panic(err) // bad directory, unreadable log, ...
	}
	fmt.Println("first open recovered", st.Live())
	q.Insert(99, []byte("paying customer"))
	if err := q.SyncWAL(); err != nil {
		panic(err)
	}
	// Acknowledged: the insert survives kill -9 from here on.
	_ = q.CloseWAL() // final sync + close, after the last drain

	q, st, _ = repro.Open[[]byte](cfg, repro.BytesCodec{})
	k, v, _ := q.TryExtractMax()
	fmt.Println("second open recovered", st.Live(), "-", k, string(v))
	_ = q.CloseWAL()
	// Output:
	// first open recovered 0
	// second open recovered 1 - 99 paying customer
}

// The accuracy/throughput trade-off is configured per queue: a small batch
// keeps extractions near-exact; batch 0 makes them exact.
func ExampleConfig() {
	cfg := repro.Config{
		Batch:     8,  // max is guaranteed at least once per 9 extractions
		TargetLen: 12, // elements per tree node
		Lock:      repro.LockTATAS,
	}
	q := repro.New[struct{}](cfg)
	for i := uint64(0); i < 100; i++ {
		q.Insert(i, struct{}{})
	}
	// The first extraction after a refill is always the true maximum.
	k, _, _ := q.TryExtractMax()
	fmt.Println(k)
	// Output: 99
}
