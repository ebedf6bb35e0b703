package wal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/xrand"
)

// goldenLogHashes and goldenStateHash pin TestLogBytesGolden's script:
// the first 8 bytes of SHA-256 over queue.wal at the end of each phase,
// and over the state recovered at the end. They were generated by the
// append API this file's script replaced (one method per record kind)
// and must never change: a new hash means a byte on disk changed.
var goldenLogHashes = []string{
	"48cc9ab4c8b88dbf", "ff3d4f5c62a2e137", "8016567c8802952e", "c02ec0cf0410750d", "b32864d745e54923",
	"f6fa896c16757913", "6de3b4ac34d50a32", "eb168977d1419294", "02bd85f844049751", "5728457b731b95fc",
}

const goldenStateHash = "9330b50814b2cf1d"

// TestLogBytesGolden runs one fixed single-goroutine script through a
// Log — key-only and valued batches of 2-64 keys, single inserts and
// extracts, an explicit Snapshot per phase through eight deltas and one
// rebase — and pins the log bytes after every phase and the recovered
// state at the end. Chain files are compared here by the state they
// recover to; their bytes, which are deterministic (keys in ascending
// order), are TestSnapshotBytesGolden's to pin.
func TestLogBytesGolden(t *testing.T) {
	opts := testOptions(t)
	opts.GroupCommit = time.Hour
	l := mustOpen(t, opts)
	rng := xrand.New(27)
	var live []uint64
	val := func() []byte {
		if rng.Intn(8) == 0 {
			return nil
		}
		v := make([]byte, rng.Intn(40))
		for i := range v {
			v[i] = byte(rng.Uint64())
		}
		return v
	}
	insert := func(n int, valued bool) {
		keys := make([]uint64, n)
		var vals [][]byte
		if valued {
			vals = make([][]byte, n)
		}
		for i := range keys {
			keys[i] = rng.Uint64n(512)
			if valued {
				vals[i] = val()
			}
		}
		l.AppendInserts(keys, vals)
		live = append(live, keys...)
	}
	extract := func(n int) {
		keys := make([]uint64, n)
		for i := range keys {
			j := rng.Intn(len(live))
			keys[i] = live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		l.AppendExtracts(keys)
	}

	var got []string
	for phase := 0; phase < 10; phase++ {
		insert(2+(phase*7)%63, false)
		insert(2+(phase*13+5)%63, true)
		for i := 0; i < 3; i++ {
			insert(1, false)
			insert(1, true)
		}
		extract(1)
		extract(1)
		extract(2 + phase%5)
		insert(64, phase%2 == 0)
		extract(2 + (phase*11)%40)
		if err := l.Sync(); err != nil {
			t.Fatalf("phase %d: Sync: %v", phase, err)
		}
		b, err := os.ReadFile(filepath.Join(opts.Dir, walName))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, shortHash(b))
		if phase < 9 {
			if err := l.Snapshot(); err != nil {
				t.Fatalf("phase %d: Snapshot: %v", phase, err)
			}
		}
	}
	if st := l.Stats(); st.DeltaSnapshots != 8 || st.Rebases != 1 {
		t.Fatalf("script took %d deltas and %d rebases, want 8 and 1", st.DeltaSnapshots, st.Rebases)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st, err := Recover(opts.Dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if st.Live() != len(live) {
		t.Fatalf("recovered %d live keys, script left %d", st.Live(), len(live))
	}
	stateHash := hashState(st)

	t.Logf("log hashes %q, state hash %q", got, stateHash)
	if len(got) != len(goldenLogHashes) {
		t.Fatalf("script hashed %d phases, golden has %d", len(got), len(goldenLogHashes))
	}
	for i := range got {
		if got[i] != goldenLogHashes[i] {
			t.Errorf("phase %d: queue.wal hash %s, golden %s", i, got[i], goldenLogHashes[i])
		}
	}
	if stateHash != goldenStateHash {
		t.Errorf("recovered state hash %s, golden %s", stateHash, goldenStateHash)
	}
}

func shortHash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func hashState(st *State) string {
	var b []byte
	b = binary.LittleEndian.AppendUint64(b, st.NextLSN)
	b = binary.LittleEndian.AppendUint64(b, st.SnapshotLSN)
	b = binary.LittleEndian.AppendUint64(b, uint64(st.Deltas))
	for i, k := range st.Keys {
		b = binary.LittleEndian.AppendUint64(b, k)
		if st.Vals == nil || st.Vals[i] == nil {
			b = binary.LittleEndian.AppendUint32(b, noPayload)
			continue
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(st.Vals[i])))
		b = append(b, st.Vals[i]...)
	}
	return shortHash(b)
}

// goldenSnapHashes pins TestSnapshotBytesGolden's chain files: the first
// 8 bytes of SHA-256 over the v1 base, the v2 base and the delta, and
// their lengths. Chain files list their keys in ascending order, so one
// history always writes the same bytes; a new hash means a byte of the
// snapshot format changed.
var goldenSnapHashes = []struct {
	hash string
	size int
}{{"9d50e376a71974c0", 364}, {"c47dad1f704b47a6", 876}, {"7573d0d7ca86f980", 133}}

// TestSnapshotBytesGolden runs one fixed history through rebaseEvery+1
// key-only snapshots (the last a rebase into a v1 base), then as many
// valued ones with empty and payload-less instances (a rebase into a v2
// base), then one more (a delta), and pins the bytes of those three
// files.
func TestSnapshotBytesGolden(t *testing.T) {
	opts := testOptions(t)
	opts.GroupCommit = time.Hour
	l := mustOpen(t, opts)
	rng := xrand.New(36)
	var live []uint64
	snapshot := func() {
		t.Helper()
		for i := 0; i < 3; i++ {
			j := rng.Intn(len(live))
			l.AppendExtracts([]uint64{live[j]})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if err := l.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	read := func(name string, magic uint64) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(opts.Dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(b); got != magic {
			t.Fatalf("%s has magic %x, want %x", name, got, magic)
		}
		if _, err := newRun(name, magic, b[8:len(b)-4]); err != nil || !inKeyOrder(magic, b[8:len(b)-4]) {
			t.Fatalf("%s does not parse in key order (%v)", name, err)
		}
		return b
	}
	var files [][]byte
	for phase := 0; phase < 2; phase++ {
		for i := 0; i <= rebaseEvery; i++ {
			keys := make([]uint64, 6)
			var vals [][]byte
			if phase == 1 {
				vals = make([][]byte, len(keys))
			}
			for j := range keys {
				keys[j] = rng.Uint64n(24) << (8 * rng.Uint64n(3))
				if vals != nil && j%3 > 0 {
					vals[j] = make([]byte, rng.Intn(5)*(j%3-1))
					for x := range vals[j] {
						vals[j][x] = byte(rng.Uint64())
					}
				}
			}
			l.AppendInserts(keys, vals)
			live = append(live, keys...)
			snapshot()
		}
		files = append(files, read(snapName, []uint64{snapMagic, snapMagicV2}[phase]))
	}
	l.AppendInserts([]uint64{5, 1 << 40, 5}, [][]byte{nil, []byte("delta"), {}})
	live = append(live, 5, 1<<40, 5)
	snapshot()
	files = append(files, read(deltaName(0), deltaMagic))
	if st := l.Stats(); st.Rebases != 2 || st.DeltaSnapshots != 2*rebaseEvery+1 {
		t.Fatalf("history took %d rebases and %d deltas, want 2 and %d", st.Rebases, st.DeltaSnapshots, 2*rebaseEvery+1)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st := recoverDir(t, opts.Dir); st.Live() != len(live) {
		t.Fatalf("recovered %d live keys, history left %d", st.Live(), len(live))
	}
	for i, b := range files {
		t.Logf("file %d: %d bytes, hash %s", i, len(b), shortHash(b))
		if g := goldenSnapHashes[i]; shortHash(b) != g.hash || len(b) != g.size {
			t.Errorf("file %d: %d bytes hashing %s, golden %d bytes hashing %s", i, len(b), shortHash(b), g.size, g.hash)
		}
	}
}
