package contract

import (
	"strings"
	"sync"
	"testing"
)

// feed replays a simple single-threaded history through one recorder.
func feed(c *Checker, inserts []uint64, extracts []uint64) {
	r := c.Recorder()
	for _, k := range inserts {
		r.WillInsert(k)
		r.DidInsert()
	}
	for _, k := range extracts {
		r.WillExtract()
		r.DidExtract(k, true)
	}
}

func TestCleanStrictHistoryPasses(t *testing.T) {
	c := NewChecker(Config{Batch: 2})
	r := c.Recorder()
	for k := uint64(1); k <= 9; k++ {
		r.WillInsert(k)
		r.DidInsert()
	}
	c.BeginStrict()
	// A b=2 relaxed queue may return elements up to rank 2, with the true
	// max at least once per 3 extractions. 9,8,7 then 6,5,4 then 3,2,1 in
	// pool-claim order (ascending within a refill batch is allowed).
	for _, k := range []uint64{7, 8, 9, 4, 5, 6, 1, 2, 3} {
		r.WillExtract()
		r.DidExtract(k, true)
	}
	c.EndStrict()
	rep, err := c.Verify()
	if err != nil {
		t.Fatalf("clean history rejected: %v\n%v", err, rep.Violations)
	}
	if rep.Inserts != 9 || rep.Extracts != 9 || rep.Remaining != 0 {
		t.Fatalf("report %+v", rep)
	}
	if rep.MaxStrictRank != 2 {
		t.Fatalf("MaxStrictRank = %d, want 2", rep.MaxStrictRank)
	}
	if rep.WorstRun != 2 {
		t.Fatalf("WorstRun = %d, want 2", rep.WorstRun)
	}
}

func TestHighRankAloneIsNotViolation(t *testing.T) {
	// A single deep extraction is legal — ZMSQ bounds the true-max window,
	// not per-extraction rank (pool claims come from the root's list) — but
	// it must surface in the diagnostics.
	c := NewChecker(Config{Batch: 1})
	r := c.Recorder()
	for k := uint64(1); k <= 5; k++ {
		r.WillInsert(k)
		r.DidInsert()
	}
	c.BeginStrict()
	r.WillExtract()
	r.DidExtract(2, true) // rank 3, far beyond batch 1
	c.EndStrict()
	rep, err := c.Verify()
	if err != nil {
		t.Fatalf("single deep extraction rejected: %v", err)
	}
	if rep.MaxStrictRank != 3 {
		t.Fatalf("MaxStrictRank = %d, want 3", rep.MaxStrictRank)
	}
	if rep.WorstRun != 1 {
		t.Fatalf("WorstRun = %d, want 1", rep.WorstRun)
	}
}

func TestWindowViolationDetected(t *testing.T) {
	// batch=1: at most 1 consecutive non-max extraction. Extracting rank-1
	// twice in a row violates the b+1 window even though each rank is
	// within bound.
	c := NewChecker(Config{Batch: 1})
	r := c.Recorder()
	for _, k := range []uint64{10, 20, 30, 40} {
		r.WillInsert(k)
		r.DidInsert()
	}
	c.BeginStrict()
	for _, k := range []uint64{30, 20, 40, 10} { // 30:rank1, 20:rank1 → run of 2
		r.WillExtract()
		r.DidExtract(k, true)
	}
	c.EndStrict()
	rep, err := c.Verify()
	if err == nil {
		t.Fatal("two consecutive non-max extractions under batch=1 passed")
	}
	if !strings.Contains(rep.Violations[0], "consecutive") {
		t.Fatalf("unexpected violation: %q", rep.Violations[0])
	}
	if rep.WorstRun != 2 {
		t.Fatalf("WorstRun = %d, want 2", rep.WorstRun)
	}
}

func TestWindowRunsDoNotSpanStrictSections(t *testing.T) {
	c := NewChecker(Config{Batch: 1})
	r := c.Recorder()
	for _, k := range []uint64{10, 20, 30, 40} {
		r.WillInsert(k)
		r.DidInsert()
	}
	c.BeginStrict()
	r.WillExtract()
	r.DidExtract(30, true) // rank 1
	c.EndStrict()
	c.BeginStrict()
	r.WillExtract()
	r.DidExtract(20, true) // rank 1 again, but in a fresh section
	c.EndStrict()
	if _, err := c.Verify(); err != nil {
		t.Fatalf("runs spanned strict sections: %v", err)
	}
}

func TestSlackWidensBounds(t *testing.T) {
	// Two consecutive rank-2 extractions: with batch=1 that is a window
	// violation at slack 0 (run 2 == bound+1), but slack=1 both widens the
	// window (run 2 <= bound 2) and must NOT count rank-2 as a true-max hit.
	history := func(slack int) (*Checker, *Recorder) {
		c := NewChecker(Config{Batch: 1, Slack: slack})
		r := c.Recorder()
		for _, k := range []uint64{10, 20, 30, 40, 50} {
			r.WillInsert(k)
			r.DidInsert()
		}
		c.BeginStrict()
		for _, k := range []uint64{30, 20} { // 30: rank 2 of {10..50}; 20: rank 2 of {10,20,40,50}
			r.WillExtract()
			r.DidExtract(k, true)
		}
		c.EndStrict()
		return c, r
	}
	c, _ := history(0)
	if _, err := c.Verify(); err == nil {
		t.Fatal("run of 2 under batch=1 slack=0 passed")
	}
	c, _ = history(1)
	rep, err := c.Verify()
	if err != nil {
		t.Fatalf("run of 2 under batch=1 slack=1 rejected: %v", err)
	}
	if rep.WorstRun != 2 {
		t.Fatalf("WorstRun = %d, want 2 (rank 2 > slack 1 is not a hit)", rep.WorstRun)
	}
}

func TestConservationViolations(t *testing.T) {
	t.Run("never inserted", func(t *testing.T) {
		c := NewChecker(Config{Batch: 4})
		feed(c, []uint64{1, 2}, []uint64{3})
		rep, err := c.Verify()
		if err == nil {
			t.Fatal("phantom extraction passed")
		}
		if !strings.Contains(rep.Violations[0], "not present") {
			t.Fatalf("unexpected violation: %q", rep.Violations[0])
		}
	})
	t.Run("double extract", func(t *testing.T) {
		c := NewChecker(Config{Batch: 4})
		feed(c, []uint64{1, 2}, []uint64{2, 2})
		if _, err := c.Verify(); err == nil {
			t.Fatal("double extraction passed")
		}
	})
	t.Run("remaining", func(t *testing.T) {
		c := NewChecker(Config{Batch: 4})
		feed(c, []uint64{1, 2, 3}, []uint64{2})
		rep, err := c.Verify()
		if err != nil {
			t.Fatalf("unexpected violation: %v", err)
		}
		if rep.Remaining != 2 {
			t.Fatalf("Remaining = %d, want 2", rep.Remaining)
		}
	})
}

func TestFailedExtractOnProvablyNonemptyQueue(t *testing.T) {
	c := NewChecker(Config{Batch: 0})
	r := c.Recorder()
	r.WillInsert(7)
	r.DidInsert()
	// No other extraction in flight: a failure now is provably wrong.
	r.WillExtract()
	r.DidExtract(0, false)
	rep, err := c.Verify()
	if err == nil {
		t.Fatal("failed extract on nonempty queue passed")
	}
	if !strings.Contains(rep.Violations[0], "provably nonempty") {
		t.Fatalf("unexpected violation: %q", rep.Violations[0])
	}
	if rep.FailedExtracts != 1 {
		t.Fatalf("FailedExtracts = %d, want 1", rep.FailedExtracts)
	}
}

func TestFailedExtractOnEmptyQueueAllowed(t *testing.T) {
	c := NewChecker(Config{Batch: 0})
	r := c.Recorder()
	r.WillExtract()
	r.DidExtract(0, false) // nothing inserted: failure is correct
	r.WillInsert(1)
	r.DidInsert()
	r.WillExtract()
	r.DidExtract(1, true)
	r.WillExtract()
	r.DidExtract(0, false) // drained again: failure is correct
	if _, err := c.Verify(); err != nil {
		t.Fatalf("legitimate failures flagged: %v", err)
	}
}

func TestFailedExtractIgnoresLaterInserts(t *testing.T) {
	// An insert completing after the attempt began may also postdate the
	// attempt's empty observation, so it must not make the failure a
	// violation.
	c := NewChecker(Config{Batch: 0})
	e, p := c.Recorder(), c.Recorder()
	e.WillExtract()
	p.WillInsert(1) // lands after the attempt started — benefit of the doubt
	p.DidInsert()
	e.DidExtract(0, false)
	rep, err := c.Verify()
	if err != nil {
		t.Fatalf("insert racing a failed extract flagged: %v", err)
	}
	// The element is still accounted for by conservation.
	if rep.Remaining != 1 {
		t.Fatalf("Remaining = %d, want 1", rep.Remaining)
	}
}

func TestFailedExtractConcurrencyBenefitOfDoubt(t *testing.T) {
	// One element, two concurrent extract attempts: the loser's failure
	// must NOT be a violation — the element may be claimed by the peer
	// still in flight.
	c := NewChecker(Config{Batch: 0})
	a, b := c.Recorder(), c.Recorder()
	a.WillInsert(1)
	a.DidInsert()
	a.WillExtract()
	b.WillExtract()
	b.DidExtract(0, false) // a is still in flight and may hold the element
	a.DidExtract(1, true)
	if _, err := c.Verify(); err != nil {
		t.Fatalf("in-flight peer not credited: %v", err)
	}
}

// TestConcurrentRecordingMergesBySeq drives many recorders concurrently
// and checks the merged history conserves elements.
func TestConcurrentRecordingMergesBySeq(t *testing.T) {
	c := NewChecker(Config{Batch: 8, Slack: 8})
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := c.Recorder()
			base := uint64(w * each)
			for i := 0; i < each; i++ {
				k := base + uint64(i)
				r.WillInsert(k)
				r.DidInsert()
				r.WillExtract()
				r.DidExtract(k, true)
			}
		}(w)
	}
	wg.Wait()
	rep, err := c.Verify()
	if err != nil {
		t.Fatalf("concurrent history rejected: %v\n%v", err, rep.Violations)
	}
	if rep.Inserts != workers*each || rep.Extracts != workers*each || rep.Remaining != 0 {
		t.Fatalf("report %+v", rep)
	}
}

func TestShardedWindowBound(t *testing.T) {
	// Shards=2, Batch=1: the composed window allows up to S*(b+1)-1 = 3
	// consecutive non-max extractions; the 4th is a violation.
	mk := func() *Checker {
		c := NewChecker(Config{Batch: 1, Shards: 2})
		r := c.Recorder()
		for _, k := range []uint64{10, 20, 30, 40, 50, 60} {
			r.WillInsert(k)
			r.DidInsert()
		}
		return c
	}

	// Exactly at the bound: three non-max extractions then the max.
	c := mk()
	r := c.recorders[0]
	c.BeginStrict()
	for _, k := range []uint64{50, 40, 30, 60, 20, 10} { // ranks 1,1,1,0,...
		r.WillExtract()
		r.DidExtract(k, true)
	}
	c.EndStrict()
	rep, err := c.Verify()
	if err != nil {
		t.Fatalf("run at composed bound rejected: %v\n%v", err, rep.Violations)
	}
	if rep.WorstRun != 3 {
		t.Fatalf("WorstRun = %d, want 3", rep.WorstRun)
	}

	// One past the bound: four consecutive non-max extractions.
	c = mk()
	r = c.recorders[0]
	c.BeginStrict()
	for _, k := range []uint64{50, 40, 30, 20, 60, 10} { // ranks 1,1,1,1 → run of 4
		r.WillExtract()
		r.DidExtract(k, true)
	}
	c.EndStrict()
	rep, err = c.Verify()
	if err == nil {
		t.Fatal("run past the composed S*(b+1) bound passed")
	}
	if !strings.Contains(rep.Violations[0], "shards 2") {
		t.Fatalf("violation does not mention shard count: %q", rep.Violations[0])
	}
}

func TestShardsZeroAndOneDegenerate(t *testing.T) {
	for _, s := range []int{0, 1} {
		cfg := Config{Batch: 3, Shards: s, Slack: 2}
		if got, want := cfg.windowBound(), 3+2; got != want {
			t.Errorf("Shards=%d windowBound = %d, want %d", s, got, want)
		}
	}
	if got, want := (Config{Batch: 3, Shards: 4}).windowBound(), 4*4-1; got != want {
		t.Errorf("Shards=4 windowBound = %d, want %d", got, want)
	}
}
