package wal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// FuzzSnapshotDecode drives the chain-file run parser with arbitrary
// bodies, framed with a valid CRC as a v1 base, a v2 base and a delta,
// and folds every run that opens, streamed as loadChain opens it,
// together with a small log window, the two ways the package does: into
// a State (Recover) and into a new base (a rebase). Chain files are
// CRC-framed, so a mutated file never reaches the parser; fuzzing the
// bodies directly is what exercises its bounds checks. The base is
// written the way a Log writes it, in one pass into a seekable file
// (memFile). The properties: nothing panics, every error wraps
// ErrCorrupt, and a base the fold writes parses back, recovers to the
// same State and is byte for byte that State written as a base
// (encodeState).
// Seeds are the bodies of real chain files, in key order and reversed.
func FuzzSnapshotDecode(f *testing.F) {
	bodies := chainBodies(f)
	for _, body := range bodies {
		f.Add(body)
	}
	f.Add(wrappedV1Body())
	f.Add(hugeCountV1Body())
	f.Add([]byte{})
	for _, body := range bodies {
		for _, magic := range []uint64{snapMagic, snapMagicV2, deltaMagic} {
			if _, err := newRun("seed", magic, body); err == nil && len(entrySpans(magic, body)) > 1 {
				f.Add(reversedBody(magic, body))
			}
		}
	}

	var img []byte
	img = appendRecord(img, recInsertV, 1, []uint64{7}, [][]byte{[]byte("x")})
	img = appendRecord(img, recInsertBatch, 2, []uint64{1, 7}, nil)
	img = appendRecord(img, recExtractBatch, 3, []uint64{7, 1}, nil)
	img = appendRecord(img, recInsertBatchV, 4, []uint64{1, 9}, [][]byte{{}, []byte("yz")})
	ev, _, _, _, err := scanLog(img, 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	ev, _ = sortEvents(ev, nil)
	// The window's delta, written and read back, recovers what the window
	// does.
	var delta memFile
	var fromDelta, fromLog State
	if err := encodeDelta(&snapWriter{dst: &delta}, 0, 4, &run{name: walName, img: img, ev: ev}); err != nil {
		f.Fatal(err)
	}
	r, err := streamedRun("delta", delta.b)
	if err == nil {
		err = foldState(&fromDelta, []*run{r})
	}
	if err != nil || foldState(&fromLog, []*run{{name: walName, img: img, ev: ev}}) != nil ||
		!slices.Equal(fromDelta.Keys, fromLog.Keys) || !reflect.DeepEqual(fromDelta.Vals, fromLog.Vals) {
		f.Fatalf("the window's delta recovers %v %q (%v), the window %v %q", fromDelta.Keys, fromDelta.Vals, err, fromLog.Keys, fromLog.Vals)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		ok := func(err error) bool {
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
			return err == nil
		}
		var runs []*run
		for _, magic := range []uint64{snapMagic, snapMagicV2, deltaMagic} {
			if r, err := streamedRun("fuzz", snapFileBytes(magic, body)); ok(err) {
				runs = append(runs, r)
			}
		}
		runs = append(runs, &run{name: walName, img: img, ev: ev})
		// Fold only what fits in memory: a well-formed v1 base can claim up
		// to maxLive instances, and expanding those is not under test.
		if err := countLive(runs, 1<<16); errors.Is(err, errTooMany) || !ok(err) {
			return
		}
		var want State
		if !ok(foldState(&want, runs)) {
			return
		}
		var base, ref memFile
		if !ok(encodeBase(&snapWriter{dst: &base}, 1, runs)) {
			return
		}
		if err := encodeState(&snapWriter{dst: &ref}, 1, &want); err != nil || !bytes.Equal(base.b, ref.b) {
			t.Fatalf("the one-pass base differs from the State's (%v)", err)
		}
		r, err := streamedRun("base", base.b)
		if err != nil {
			t.Fatalf("the written base does not open: %v", err)
		}
		var got State
		if err := foldState(&got, []*run{r}); err != nil {
			t.Fatalf("the written base does not fold: %v", err)
		}
		if !slices.Equal(got.Keys, want.Keys) || !reflect.DeepEqual(got.Vals, want.Vals) {
			t.Fatalf("the written base recovers %v %q, its runs %v %q", got.Keys, got.Vals, want.Keys, want.Vals)
		}
	})
}

// errTooMany is countLive finding more live instances than it allows.
var errTooMany = errors.New("too many live instances")

// countLive folds runs, loading any found out of key order, and fails
// with errTooMany as soon as more than limit instances survive.
func countLive(runs []*run, limit int64) error {
	for {
		var live int64
		err := fold(runs, func(_ uint64, n, _ int64) error {
			if live += n; live > limit {
				return errTooMany
			}
			return nil
		}, func([]byte, int64) {})
		if !errors.Is(err, errUnsorted) {
			return err
		}
		if err := loadUnsorted(runs); err != nil {
			return err
		}
	}
}

// chainBodies runs a key-only and a valued log through rebaseEvery+2
// snapshots — deltas, a rebase into a base (v1 and v2 respectively), one
// more delta — and returns the body of every chain file left behind.
func chainBodies(f *testing.F) [][]byte {
	var out [][]byte
	for _, valued := range []bool{false, true} {
		dir := f.TempDir()
		l, _, err := Open(Options{Dir: dir, GroupCommit: time.Hour})
		if err != nil {
			f.Fatal(err)
		}
		for i := uint64(0); i < rebaseEvery+2; i++ {
			var vals [][]byte
			if valued {
				vals = [][]byte{[]byte("payload"), nil, {}}
			}
			l.AppendInserts([]uint64{i, i + 1, 7}, vals)
			l.AppendInserts([]uint64{100 + i}, nil)
			l.AppendExtracts([]uint64{i})
			if err := l.Snapshot(); err != nil {
				f.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			f.Fatal(err)
		}
		if st, err := Recover(dir); err != nil || st.Deltas != 1 || st.SnapshotLSN == 0 {
			f.Fatalf("seed chain (valued %v) recovered %+v, %v; want a base and one delta", valued, st, err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			f.Fatal(err)
		}
		for _, e := range ents {
			if !strings.HasPrefix(e.Name(), snapName) {
				continue
			}
			_, body, err := readSnapFile(filepath.Join(dir, e.Name()))
			if err != nil {
				f.Fatal(err)
			}
			out = append(out, body)
		}
	}
	return out
}

// FuzzWALDecode drives the record decoder with arbitrary bytes. The
// properties under test:
//
//  1. Never panic, whatever the input.
//  2. Encode → decode round-trips: a stream of appendRecord frames (all
//     six kinds, v1 and v2) decodes back
//     to the same (kind, lsn, keys, vals) sequence, ending in a clean
//     io.EOF.
//  3. Torn-tail prefixes decode to a clean truncation: every proper
//     byte prefix of a valid stream yields the records whose frames fit,
//     then ErrTornTail (or io.EOF exactly on a frame boundary) — never
//     ErrCorrupt, never a record that was not written. A cut landing
//     inside a v2 record's payload bytes tears the same way: the frame
//     CRC covers the value, so a half-written payload can only truncate.
func FuzzWALDecode(f *testing.F) {
	var seed []byte
	seed = appendRecord(seed, recInsert, 1, []uint64{42}, nil)
	seed = appendRecord(seed, recInsertBatch, 2, []uint64{7, 7, 9}, nil)
	seed = appendRecord(seed, recExtract, 3, []uint64{7}, nil)
	seed = appendRecord(seed, recExtractBatch, 4, []uint64{9}, nil)
	seed = appendRecord(seed, recInsertV, 5, []uint64{42}, [][]byte{[]byte("hello")})
	seed = appendRecord(seed, recInsertBatchV, 6, []uint64{1, 2}, [][]byte{{}, []byte("xyz")})
	f.Add(seed, uint16(len(seed)))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1}, uint16(3))
	f.Add(bytes.Repeat([]byte{0}, 64), uint16(64))

	f.Fuzz(func(t *testing.T, raw []byte, cutAt uint16) {
		// Property 1: arbitrary bytes never panic and always terminate.
		d := NewDecoder(raw)
		prevOff := d.Offset()
		for {
			_, err := d.Next()
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrTornTail) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("unclassified decode error: %v", err)
				}
				break
			}
			if d.Offset() <= prevOff {
				t.Fatalf("decoder did not advance: %d -> %d", prevOff, d.Offset())
			}
			prevOff = d.Offset()
		}

		// Reinterpret the fuzz input as record content and check
		// properties 2 and 3 on the valid stream built from it.
		var enc []byte
		type rec struct {
			kind byte
			lsn  uint64
			keys []uint64
			vals [][]byte
		}
		var want []rec
		lsn := uint64(0)
		for i := 0; i+1 < len(raw) && len(want) < 16; i += 2 {
			lsn += uint64(raw[i]%5) + 1
			kind := byte(raw[i]%6) + 1
			var keys []uint64
			n := int(raw[i+1]%5) + 1
			if kind == recInsert || kind == recExtract || kind == recInsertV {
				n = 1
			}
			for j := 0; j < n; j++ {
				keys = append(keys, uint64(raw[i+1])<<8|uint64(j))
			}
			switch kind {
			case recInsertBatch, recExtractBatch:
				enc = appendRecord(enc, kind, lsn, keys, nil)
				want = append(want, rec{kind, lsn, keys, nil})
			case recInsertV, recInsertBatchV:
				vals := make([][]byte, len(keys))
				for j := range vals {
					vals[j] = make([]byte, int(raw[i+1]>>4)%8)
					for x := range vals[j] {
						vals[j][x] = raw[i+1] + byte(j) + byte(x)
					}
				}
				enc = appendRecord(enc, kind, lsn, keys, vals)
				want = append(want, rec{kind, lsn, keys, vals})
			default:
				enc = appendRecord(enc, kind, lsn, keys, nil)
				want = append(want, rec{kind, lsn, keys, nil})
			}
		}

		// Property 2: full round-trip.
		d = NewDecoder(enc)
		for i, w := range want {
			got, err := d.Next()
			if err != nil {
				t.Fatalf("record %d failed to decode: %v", i, err)
			}
			if got.Kind != w.kind || got.LSN != w.lsn || len(got.Keys) != len(w.keys) {
				t.Fatalf("record %d round-trip: got kind=%d lsn=%d keys=%v, want kind=%d lsn=%d keys=%v",
					i, got.Kind, got.LSN, got.Keys, w.kind, w.lsn, w.keys)
			}
			for j := range w.keys {
				if got.Keys[j] != w.keys[j] {
					t.Fatalf("record %d key %d: got %d want %d", i, j, got.Keys[j], w.keys[j])
				}
			}
			if w.vals == nil {
				if got.Vals != nil {
					t.Fatalf("record %d: v1 record decoded with Vals %v", i, got.Vals)
				}
				continue
			}
			if len(got.Vals) != len(w.vals) {
				t.Fatalf("record %d: decoded %d vals, want %d", i, len(got.Vals), len(w.vals))
			}
			for j := range w.vals {
				if got.Vals[j] == nil || !bytes.Equal(got.Vals[j], w.vals[j]) {
					t.Fatalf("record %d val %d: got %v want %v", i, j, got.Vals[j], w.vals[j])
				}
			}
		}
		if _, err := d.Next(); err != io.EOF {
			t.Fatalf("after all records: %v, want io.EOF", err)
		}

		// Property 3: every prefix is a clean truncation.
		cut := int(cutAt)
		if len(enc) > 0 {
			cut %= len(enc)
		} else {
			cut = 0
		}
		d = NewDecoder(enc[:cut])
		decoded := 0
		for {
			got, err := d.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if errors.Is(err, ErrTornTail) {
				var torn *TornTailError
				if !errors.As(err, &torn) {
					t.Fatalf("torn tail not a *TornTailError: %v", err)
				}
				if torn.Offset != d.Offset() {
					t.Fatalf("torn offset %d != decoder offset %d", torn.Offset, d.Offset())
				}
				break
			}
			if err != nil {
				t.Fatalf("prefix cut at %d of %d: %v (prefixes must tear, not corrupt)", cut, len(enc), err)
			}
			w := want[decoded]
			if got.Kind != w.kind || got.LSN != w.lsn {
				t.Fatalf("prefix decoded a record that was never written: %+v", got)
			}
			decoded++
		}
	})
}
