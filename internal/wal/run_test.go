package wal

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xrand"
)

// flushLocked writes the pending buffer to the file, as a Sync does
// before its fsync. l.mu must be held.
func (l *Log) flushLocked() error {
	n, err := l.f.Write(l.buf)
	l.written += int64(n)
	l.buf = l.buf[:0]
	return err
}

// memFile is an in-memory snapFile, counting its seeks: a base whose
// key count was patched in place seeked back to it.
type memFile struct {
	b     []byte
	off   int64
	seeks int
}

func (f *memFile) Write(p []byte) (int, error) {
	if end := f.off + int64(len(p)); end > int64(len(f.b)) {
		f.b = append(f.b, make([]byte, end-int64(len(f.b)))...)
	}
	f.off += int64(copy(f.b[f.off:], p))
	return len(p), nil
}

func (f *memFile) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekCurrent:
		off += f.off
	case io.SeekEnd:
		off += int64(len(f.b))
	}
	if off < 0 {
		return 0, errors.New("memFile: seek before the start")
	}
	f.off = off
	f.seeks++
	return off, nil
}

func (f *memFile) Truncate(size int64) error {
	if size > int64(len(f.b)) {
		f.b = append(f.b, make([]byte, size-int64(len(f.b)))...)
	}
	f.b = f.b[:size]
	return nil
}

// newRun parses a chain file body of the kind its magic names into a run
// held in memory, sorted by key.
func newRun(name string, magic uint64, body []byte) (*run, error) {
	r, err := streamedRun(name, snapFileBytes(magic, body))
	if err != nil {
		return nil, err
	}
	return r, r.load()
}

// streamedRun is a chain file image (magic, body, CRC) as a streamed run,
// the way loadChain opens a file.
func streamedRun(name string, file []byte) (*run, error) {
	if len(file) < 12 {
		return nil, fmt.Errorf("%w: %s too short", ErrCorrupt, name)
	}
	r := &run{}
	return r, r.open(name, bytes.NewReader(file), int64(len(file)-12), binary.LittleEndian.Uint64(file))
}

// readSnapFile reads and CRC-checks one chain file, returning its magic
// and body (everything between magic and CRC).
func readSnapFile(path string) (magic uint64, body []byte, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	if len(b) < 12 {
		return 0, nil, fmt.Errorf("%w: snapshot file %s too short", ErrCorrupt, filepath.Base(path))
	}
	body = b[8 : len(b)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
		return 0, nil, fmt.Errorf("%w: snapshot file %s crc mismatch", ErrCorrupt, filepath.Base(path))
	}
	return binary.LittleEndian.Uint64(b), body, nil
}

// decodeDelta parses a delta body into its watermarks and its run.
func decodeDelta(body []byte) (prevLSN, lsn uint64, r *run, err error) {
	if r, err = newRun("delta", deltaMagic, body); err != nil {
		return 0, 0, nil, err
	}
	return r.prev, r.lsn, r, nil
}

// entrySpans returns where each entry of a valid chain file body of the
// kind magic names starts and ends, in file order.
func entrySpans(magic uint64, body []byte) [][2]int {
	hdr, entry := 16, 16
	if magic == deltaMagic {
		hdr, entry = 24, 20
	}
	var spans [][2]int
	for off := hdr; off < len(body); {
		start, n := off, int(binary.LittleEndian.Uint64(body[off+8:]))
		if magic == deltaMagic {
			n = int(binary.LittleEndian.Uint32(body[off+16:]))
		}
		off += entry
		for j := 0; magic != snapMagic && j < n; j++ {
			vlen := binary.LittleEndian.Uint32(body[off:])
			if off += 4; vlen != noPayload {
				off += int(vlen)
			}
		}
		spans = append(spans, [2]int{start, off})
	}
	return spans
}

// inKeyOrder reports whether a chain file body lists its keys ascending.
func inKeyOrder(magic uint64, body []byte) bool {
	spans := entrySpans(magic, body)
	return slices.IsSortedFunc(spans, func(a, b [2]int) int {
		return cmp.Compare(binary.LittleEndian.Uint64(body[a[0]:]), binary.LittleEndian.Uint64(body[b[0]:]))
	})
}

// reversedBody is a chain file body with its entries in reverse order:
// for a file written in key order, the descending order a writer that
// ranged over a map could leave behind.
func reversedBody(magic uint64, body []byte) []byte {
	spans := entrySpans(magic, body)
	b := slices.Clone(body[:spans[0][0]])
	for i := len(spans) - 1; i >= 0; i-- {
		b = append(b, body[spans[i][0]:spans[i][1]]...)
	}
	return b
}

// reverseChainFiles rewrites every chain file of dir with its entries in
// reverse order and reports how many of them are then out of key order.
func reverseChainFiles(t *testing.T, dir string) (unsorted int) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), snapName) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		magic, body, err := readSnapFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rev := reversedBody(magic, body)
		if err := os.WriteFile(path, snapFileBytes(magic, rev), 0o644); err != nil {
			t.Fatal(err)
		}
		if !inKeyOrder(magic, rev) {
			unsorted++
		}
	}
	return unsorted
}

// copyDir copies the files of src into a new temp dir.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for name, b := range readDirBytes(t, src) {
		if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestSortEvents: the radix sort orders by key and keeps the log order of
// equal keys, against the standard library's stable sort, on keys that
// differ in low bytes only, in high bytes only, and everywhere.
func TestSortEvents(t *testing.T) {
	rng := xrand.New(5)
	var tmp []event
	for _, mask := range []uint64{0xff, 0xffff_0000_0000_0000, ^uint64(0), 0} {
		for _, n := range []int{0, 1, 2, 17, 1000} {
			ev := make([]event, n)
			for i := range ev {
				ev[i] = event{key: rng.Uint64() & mask, ref: uint64(i)}
				if i%3 == 2 {
					ev[i].key = ev[i-1].key
				}
			}
			want := slices.Clone(ev)
			slices.SortStableFunc(want, func(a, b event) int { return cmp.Compare(a.key, b.key) })
			var got []event
			got, tmp = sortEvents(ev, tmp)
			if !slices.Equal(got, want) {
				t.Fatalf("mask %x, %d events: radix sort differs from a stable sort", mask, n)
			}
		}
	}
}

// TestLegacyKeyOrderChain: chain files written out of key order, as the
// writers did before entries were sorted, recover to the same State as
// the same files in key order, and a rebase over them folds them into a
// sorted base that recovers to it too.
func TestLegacyKeyOrderChain(t *testing.T) {
	opts := Options{Dir: t.TempDir(), GroupCommit: time.Hour}
	l := mustOpen(t, opts)
	for i := uint64(0); i < rebaseEvery+4; i++ {
		for k := uint64(0); k < 40; k++ {
			var vals [][]byte
			if (i+k)%3 != 0 {
				vals = [][]byte{{byte(i), byte(k)}}
			}
			l.AppendInserts([]uint64{k*7919%1000 + i%4}, vals)
		}
		l.AppendExtracts([]uint64{7919%1000 + i%4, 2*7919%1000 + i%4})
		if err := l.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	l.AppendInserts([]uint64{3}, [][]byte{[]byte("tail")})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Rebases != 1 || st.DeltaSnapshots < 3 {
		t.Fatalf("history wrote %d rebases and %d deltas, want a base and deltas", st.Rebases, st.DeltaSnapshots)
	}
	want := recoverDir(t, opts.Dir)

	legacy := copyDir(t, opts.Dir)
	if n := reverseChainFiles(t, legacy); n < 4 {
		t.Fatalf("%d chain files out of key order, want the base and every delta", n)
	}
	if got := recoverDir(t, legacy); !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy-order chain recovered\n%+v\nwant\n%+v", got, want)
	}

	l = mustOpen(t, Options{Dir: legacy, GroupCommit: time.Hour})
	for i := 0; i < rebaseEvery; i++ {
		l.AppendInserts([]uint64{2000 + uint64(i)}, nil)
		l.AppendExtracts([]uint64{2000 + uint64(i)})
		if err := l.Snapshot(); err != nil {
			t.Fatalf("snapshot %d over a legacy-order chain: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Rebases != 1 {
		t.Fatal("no rebase over the legacy-order chain")
	}
	got := recoverDir(t, legacy)
	if !slices.Equal(got.Keys, want.Keys) || !reflect.DeepEqual(got.Vals, want.Vals) {
		t.Fatalf("rebased legacy chain recovered %d keys, want %d", len(got.Keys), len(want.Keys))
	}
	magic, body, err := readSnapFile(filepath.Join(legacy, snapName))
	if err != nil {
		t.Fatal(err)
	}
	if !inKeyOrder(magic, body) || len(entrySpans(magic, body)) < 2 {
		t.Fatalf("the rebase over a legacy-order chain wrote a base out of key order (%v)", err)
	}
}

func recoverDir(t *testing.T, dir string) *State {
	t.Helper()
	st, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover(%s): %v", dir, err)
	}
	return st
}

// TestChainFileChecks: each check the run parser and the fold make on a
// CRC-valid chain file fails with ErrCorrupt.
func TestChainFileChecks(t *testing.T) {
	u64 := binary.LittleEndian.AppendUint64
	u32 := binary.LittleEndian.AppendUint32
	base := func(entries ...uint64) []byte { // (key, count) pairs
		b := u64(u64(nil, 1), uint64(len(entries)/2))
		for _, x := range entries {
			b = u64(b, x)
		}
		return b
	}
	delta := func(prev, lsn uint64, n uint64, rest []byte) []byte {
		return append(u64(u64(u64(nil, prev), lsn), n), rest...)
	}
	entry := func(k, drops uint64, adds uint32) []byte { return u32(u64(u64(nil, k), drops), adds) }
	for _, tc := range []struct {
		name  string
		files map[string][]byte
	}{
		{"base count zero", map[string][]byte{snapName: snapFileBytes(snapMagic, base(1, 0))}},
		{"base key twice", map[string][]byte{snapName: snapFileBytes(snapMagic, base(1, 1, 1, 1))}},
		{"base key twice, far apart", map[string][]byte{snapName: snapFileBytes(snapMagic, base(5, 1, 2, 1, 5, 1))}},
		{"base trailing bytes", map[string][]byte{snapName: snapFileBytes(snapMagic, append(base(1, 1), 0))}},
		{"v2 payload overruns", map[string][]byte{snapName: snapFileBytes(snapMagicV2, u32(base(1, 1), 9))}},
		{"delta watermark falls", map[string][]byte{deltaName(0): snapFileBytes(deltaMagic, delta(5, 5, 0, nil))}},
		{"delta negative drops", map[string][]byte{deltaName(0): snapFileBytes(deltaMagic, delta(0, 5, 1, entry(1, 1<<63, 0)))}},
		{"delta drops more than held + adds", map[string][]byte{
			snapName:     snapFileBytes(snapMagic, base(1, 2)),
			deltaName(0): snapFileBytes(deltaMagic, delta(1, 5, 1, append(entry(1, 4, 1), u32(nil, noPayload)...))),
		}},
		{"delta breaks the chain", map[string][]byte{
			snapName:     snapFileBytes(snapMagic, base(1, 2)),
			deltaName(0): snapFileBytes(deltaMagic, delta(3, 5, 0, nil)),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, b := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := Recover(dir); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Recover = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestRecoverMatchesModel is a differential test of the whole chain:
// random histories over a few keys, so that one key is often live many
// times, with key-only, valued and empty payloads mixed, a Snapshot about
// every tenth operation (several rebases per history, half of them in
// 256-byte chunks) and one reopen midway. Recover must return exactly
// what a FIFO model of the history holds: keys in order, each key's
// instances oldest first, and nil (key-only) apart from empty payloads.
func TestRecoverMatchesModel(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := xrand.New(seed)
			opts := Options{Dir: t.TempDir(), GroupCommit: time.Hour}
			if seed%2 == 0 {
				opts.SnapshotBytes = 256
			}
			l := mustOpen(t, opts)
			model := map[uint64][][]byte{} // per key, live payloads oldest first
			var pool []uint64              // one entry per live instance
			for op := 0; op < 400; op++ {
				switch {
				case op == 200:
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
					l = mustOpen(t, opts)
				case rng.Intn(10) == 0:
					if err := l.Snapshot(); err != nil {
						t.Fatalf("op %d: Snapshot: %v", op, err)
					}
				case len(pool) == 0 || rng.Intn(5) < 3:
					n := 1 + rng.Intn(4)
					keys := make([]uint64, n)
					var vals [][]byte
					valued := rng.Intn(3) > 0
					if valued {
						vals = make([][]byte, n)
					}
					for i := range keys {
						keys[i] = rng.Uint64n(6) << (8 * rng.Uint64n(8))
						var v []byte
						if valued {
							switch rng.Intn(4) {
							case 0: // a nil value in a valued batch is logged empty
							case 1:
								vals[i] = []byte{}
							default:
								vals[i] = []byte(fmt.Sprintf("%d/%d", op, i))
							}
							v = append([]byte{}, vals[i]...)
						}
						model[keys[i]] = append(model[keys[i]], v)
						pool = append(pool, keys[i])
					}
					l.AppendInserts(keys, vals)
				default:
					keys := make([]uint64, 1+rng.Intn(min(3, len(pool))))
					for i := range keys {
						j := rng.Intn(len(pool))
						keys[i] = pool[j]
						pool[j] = pool[len(pool)-1]
						pool = pool[:len(pool)-1]
						model[keys[i]] = model[keys[i]][1:] // FIFO: the oldest instance goes
					}
					l.AppendExtracts(keys)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			var wantKeys []uint64
			var wantVals [][]byte
			valued := false
			for k := range model {
				wantKeys = append(wantKeys, k)
			}
			slices.Sort(wantKeys)
			keys := wantKeys
			wantKeys = nil
			for _, k := range keys {
				for _, v := range model[k] {
					wantKeys = append(wantKeys, k)
					wantVals = append(wantVals, v)
					valued = valued || v != nil
				}
			}
			if !valued {
				wantVals = nil
			}
			st := recoverDir(t, opts.Dir)
			if !slices.Equal(st.Keys, wantKeys) {
				t.Fatalf("recovered keys %v, model %v", st.Keys, wantKeys)
			}
			if (st.Vals == nil) != (wantVals == nil) {
				t.Fatalf("recovered Vals nil %v, model %v", st.Vals == nil, wantVals == nil)
			}
			for i := range wantVals {
				if (st.Vals[i] == nil) != (wantVals[i] == nil) || !bytes.Equal(st.Vals[i], wantVals[i]) {
					t.Fatalf("instance %d (key %d): recovered %q (nil %v), model %q (nil %v)",
						i, st.Keys[i], st.Vals[i], st.Vals[i] == nil, wantVals[i], wantVals[i] == nil)
				}
			}
			if s := l.Stats(); s.Rebases == 0 {
				t.Fatalf("history took no rebase: %+v", s)
			}
		})
	}
}

// blockingFS is the OS file system, except that while block is set, a
// write to the file called name parks until release, after telling
// entered.
type blockingFS struct {
	osFS
	name             string
	block            atomic.Bool
	entered, release chan struct{}
}

type blockingFile struct {
	File
	fs *blockingFS
}

func (fs *blockingFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := fs.osFS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(name) != fs.name {
		return f, err
	}
	return blockingFile{f, fs}, nil
}

func (f blockingFile) Write(b []byte) (int, error) {
	if f.fs.block.Load() {
		f.fs.entered <- struct{}{}
		<-f.fs.release
	}
	return f.File.Write(b)
}

// TestAppendDuringSyncWrite: Sync writes the buffer it took without
// holding the append lock. While a Sync is parked inside the log's
// write(2), an append from another goroutine returns; the Sync then
// acknowledges exactly the records it took, and the next one the rest.
func TestAppendDuringSyncWrite(t *testing.T) {
	fs := &blockingFS{name: walName, entered: make(chan struct{}), release: make(chan struct{})}
	opts := Options{Dir: t.TempDir(), GroupCommit: time.Hour, FS: fs}
	l := mustOpen(t, opts)
	l.AppendInserts([]uint64{1, 2}, nil)
	fs.block.Store(true)
	synced := make(chan error)
	go func() { synced <- l.Sync() }()
	<-fs.entered

	appended := make(chan struct{})
	go func() {
		l.AppendInserts([]uint64{3}, [][]byte{[]byte("three")})
		close(appended)
	}()
	select {
	case <-appended:
	case <-time.After(10 * time.Second):
		t.Fatal("an append waited on a Sync's write")
	}
	fs.block.Store(false)
	fs.release <- struct{}{}
	if err := <-synced; err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if s := l.Stats(); s.DurableLSN != 1 || s.LastLSN != 2 {
		t.Fatalf("DurableLSN %d, LastLSN %d after the parked Sync, want 1 and 2", s.DurableLSN, s.LastLSN)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if s := l.Stats(); s.DurableLSN != 2 {
		t.Fatalf("DurableLSN %d after the next Sync, want 2", s.DurableLSN)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st := recoverDir(t, opts.Dir)
	if !slices.Equal(st.Keys, []uint64{1, 2, 3}) || st.Vals[0] != nil || string(st.Vals[2]) != "three" {
		t.Fatalf("recovered %v %q, want [1 2 3] and three", st.Keys, st.Vals)
	}
}
