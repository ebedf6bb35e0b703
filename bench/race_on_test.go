//go:build race

package main

// Under the race detector sync.Pool drops a quarter of what is put back,
// so the queues' pooled per-operation contexts — and with them the random
// streams rank error depends on — differ from run to run.
const raceEnabled = true
