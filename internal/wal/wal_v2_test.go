package wal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// goldenDir is the checked-in v1 key-only fixture: a snapshot and log
// written by the pre-codec (key-only) implementation, with a torn tail,
// plus the recovery state that implementation produced (expected.json).
const goldenDir = "testdata/v1-keyonly"

// TestGoldenV1Fixture proves the v2 recovery path replays a v1 key-only
// directory byte-for-byte identically to the pre-refactor code: the
// fixture's expected.json is the literal output of the old Recover, and
// every field must match. It also proves Recover stays read-only on v1
// input.
func TestGoldenV1Fixture(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(goldenDir, "expected.json"))
	if err != nil {
		t.Fatalf("reading golden expectation: %v", err)
	}
	var want struct {
		Keys                  []uint64
		NextLSN               uint64
		SnapshotLSN           uint64
		SnapshotKeys          int
		Records               uint64
		TornOffset, TornBytes int64
		WALBytes              int64
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing golden expectation: %v", err)
	}

	before := readDirBytes(t, goldenDir)
	st, err := Recover(goldenDir)
	if err != nil {
		t.Fatalf("Recover on golden v1 fixture: %v", err)
	}
	wantKeys(t, st.Keys, want.Keys...)
	if st.Vals != nil {
		t.Fatalf("v1 key-only fixture recovered payloads: %v", st.Vals)
	}
	if st.Deltas != 0 {
		t.Fatalf("v1 fixture has no deltas, recovered %d", st.Deltas)
	}
	if st.NextLSN != want.NextLSN || st.SnapshotLSN != want.SnapshotLSN || st.SnapshotKeys != want.SnapshotKeys {
		t.Fatalf("recovered NextLSN=%d SnapshotLSN=%d SnapshotKeys=%d, want %d/%d/%d",
			st.NextLSN, st.SnapshotLSN, st.SnapshotKeys, want.NextLSN, want.SnapshotLSN, want.SnapshotKeys)
	}
	if st.Records != want.Records || st.TornOffset != want.TornOffset || st.TornBytes != want.TornBytes || st.WALBytes != want.WALBytes {
		t.Fatalf("recovered Records=%d Torn=%d/%d WALBytes=%d, want %d/%d/%d/%d",
			st.Records, st.TornOffset, st.TornBytes, st.WALBytes,
			want.Records, want.TornOffset, want.TornBytes, want.WALBytes)
	}
	for name, b := range readDirBytes(t, goldenDir) {
		if !bytes.Equal(b, before[name]) {
			t.Fatalf("Recover modified fixture file %s", name)
		}
	}
}

// TestGoldenV1ContinuesAsV2 copies the fixture and keeps using it with a
// value-logging writer: the v1 prefix replays unchanged (zero-value
// instances), new v2 records append after it, and one recovery reads
// both formats from the same log.
func TestGoldenV1ContinuesAsV2(t *testing.T) {
	dir := t.TempDir()
	for name, b := range readDirBytes(t, goldenDir) {
		if name == "expected.json" {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l := mustOpen(t, Options{Dir: dir, GroupCommit: time.Millisecond})
	l.AppendInserts([]uint64{900}, [][]byte{[]byte("payload")})
	l.AppendInserts([]uint64{901, 902}, [][]byte{[]byte("a"), nil})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover across v1->v2 boundary: %v", err)
	}
	wantKeys(t, st.Keys, 100, 300, 400, 401, 500, 900, 901, 902)
	if st.Vals == nil {
		t.Fatal("payloads lost across v1->v2 continuation")
	}
	for i, k := range st.Keys {
		switch k {
		case 900:
			if string(st.Vals[i]) != "payload" {
				t.Fatalf("key 900 payload = %q", st.Vals[i])
			}
		case 901:
			if string(st.Vals[i]) != "a" {
				t.Fatalf("key 901 payload = %q", st.Vals[i])
			}
		case 902:
			if st.Vals[i] == nil || len(st.Vals[i]) != 0 {
				t.Fatalf("key 902 (nil value logged as empty payload) = %v", st.Vals[i])
			}
		default:
			if st.Vals[i] != nil {
				t.Fatalf("v1 key %d grew a payload: %q", k, st.Vals[i])
			}
		}
	}
}

func readDirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestValueRoundTrip writes valued records through every append path and
// recovers them byte-exact, including the FIFO attribution rule: a
// key-only extract consumes the OLDEST instance of its key, so the
// surviving duplicate carries the newest value.
func TestValueRoundTrip(t *testing.T) {
	opts := testOptions(t)
	l := mustOpen(t, opts)
	l.AppendInserts([]uint64{5}, [][]byte{[]byte("old")})
	l.AppendInserts([]uint64{5}, [][]byte{[]byte("new")})
	l.AppendInserts([]uint64{7, 9}, [][]byte{[]byte("seven"), {}})
	l.AppendExtracts([]uint64{5}) // consumes "old"
	l.AppendExtracts([]uint64{9})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st, err := Recover(opts.Dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	wantKeys(t, st.Keys, 5, 7)
	if st.Vals == nil || string(st.Vals[0]) != "new" || string(st.Vals[1]) != "seven" {
		t.Fatalf("recovered values %q, want [new seven]", st.Vals)
	}
}

// TestValuedBatchChunkedByBytes packs a batch whose encoded size exceeds
// one record's byte budget and checks it splits without losing a value.
func TestValuedBatchChunkedByBytes(t *testing.T) {
	opts := testOptions(t)
	l := mustOpen(t, opts)
	val := bytes.Repeat([]byte{0xab}, 400<<10) // 3 × 400KiB > maxPayload
	l.AppendInserts([]uint64{1, 2, 3}, [][]byte{val, val, val})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := l.Stats(); st.Records < 2 {
		t.Fatalf("oversized valued batch appended %d records, want >= 2 chunks", st.Records)
	}
	st, err := Recover(opts.Dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	wantKeys(t, st.Keys, 1, 2, 3)
	for i := range st.Keys {
		if !bytes.Equal(st.Vals[i], val) {
			t.Fatalf("value %d damaged across chunking", i)
		}
	}
}

// TestOversizedValueLatchesError: a value over MaxValueLen must never be
// framed (recovery would reject it); instead the log latches an error so
// Sync — the ack point — fails.
func TestOversizedValueLatchesError(t *testing.T) {
	opts := testOptions(t)
	opts.GroupCommit = time.Hour
	l := mustOpen(t, opts)
	l.AppendInserts([]uint64{1}, [][]byte{make([]byte, MaxValueLen+1)})
	if err := l.Sync(); err == nil {
		t.Fatal("Sync acked an oversized value")
	}
	l.stopBackground()
	l.closeFile()
}

// TestTornValuePayloadTruncates cuts the log inside a valued record's
// payload bytes: recovery must classify it as a torn tail (truncate)
// and keep everything before it — never ErrCorrupt.
func TestTornValuePayloadTruncates(t *testing.T) {
	opts := testOptions(t)
	l := mustOpen(t, opts)
	l.AppendInserts([]uint64{1}, [][]byte{[]byte("survives")})
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.AppendInserts([]uint64{2}, [][]byte{bytes.Repeat([]byte{0xcd}, 256)})
	l.mu.Lock()
	l.flushLocked()
	l.mu.Unlock()
	l.stopBackground()
	l.closeFile()
	path := filepath.Join(opts.Dir, walName)
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-100); err != nil { // cut mid-payload
		t.Fatal(err)
	}

	st, err := Recover(opts.Dir)
	if err != nil {
		t.Fatalf("Recover on torn value payload: %v", err)
	}
	if st.TornOffset < 0 {
		t.Fatal("torn payload not reported as a tear")
	}
	wantKeys(t, st.Keys, 1)
	if string(st.Vals[0]) != "survives" {
		t.Fatalf("acked value damaged by a later tear: %q", st.Vals[0])
	}
}

// TestIncrementalSnapshotSmallerThanFull pins the write-amplification
// win: after a small burst of operations against a large live state, the
// delta snapshot must be far smaller than the full state (what the old
// full-rewrite policy would have written).
func TestIncrementalSnapshotSmallerThanFull(t *testing.T) {
	opts := testOptions(t)
	l := mustOpen(t, opts)
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	l.AppendInserts(keys, nil)
	if err := l.Snapshot(); err != nil { // delta #0 carries the full state
		t.Fatalf("Snapshot: %v", err)
	}
	full := fileSize(t, filepath.Join(opts.Dir, deltaName(0)))

	// Small burst: 20 ops against 5000 live keys.
	for i := uint64(1); i <= 10; i++ {
		l.AppendInserts([]uint64{10000 + i}, nil)
		l.AppendExtracts([]uint64{i})
	}
	if err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	delta := fileSize(t, filepath.Join(opts.Dir, deltaName(1)))
	if delta*20 >= full {
		t.Fatalf("incremental snapshot wrote %d bytes for a 20-op window; full state is %d — no write-amplification win", delta, full)
	}
	if st := l.Stats(); st.DeltaSnapshots != 2 || st.Rebases != 0 {
		t.Fatalf("stats: %+v, want 2 delta snapshots", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := Recover(opts.Dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(st.Keys) != 5000 || st.Deltas != 2 {
		t.Fatalf("recovered %d keys across %d deltas, want 5000 across 2", len(st.Keys), st.Deltas)
	}
}

// TestRebaseFoldsChain drives enough snapshot cycles to trigger a full
// rebase (rebaseEvery deltas, then one more snapshot) and checks the
// chain collapses: one base, deltas deleted, recovery identical.
func TestRebaseFoldsChain(t *testing.T) {
	opts := testOptions(t)
	l := mustOpen(t, opts)
	live := map[uint64][]byte{}
	for round := uint64(0); round < rebaseEvery+1; round++ {
		k := round + 1
		v := []byte{byte(round), 0xee}
		l.AppendInserts([]uint64{k}, [][]byte{v})
		live[k] = v
		if round == 2 {
			l.AppendExtracts([]uint64{1}) // oldest instance of key 1
			delete(live, 1)
		}
		if err := l.Snapshot(); err != nil {
			t.Fatalf("snapshot round %d: %v", round, err)
		}
	}
	stats := l.Stats()
	if stats.Rebases == 0 {
		t.Fatalf("no rebase after %d snapshots with rebaseEvery=%d: %+v", rebaseEvery+1, rebaseEvery, stats)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := Recover(opts.Dir)
	if err != nil {
		t.Fatalf("Recover after rebase: %v", err)
	}
	if len(st.Keys) != len(live) {
		t.Fatalf("recovered %d keys, want %d", len(st.Keys), len(live))
	}
	for i, k := range st.Keys {
		if !bytes.Equal(st.Vals[i], live[k]) {
			t.Fatalf("key %d recovered value %v, want %v", k, st.Vals[i], live[k])
		}
	}
	// The folded chain must be shorter than the full history.
	if st.Deltas >= 5 {
		t.Fatalf("rebase left %d deltas in the chain", st.Deltas)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat %s: %v", path, err)
	}
	return fi.Size()
}
