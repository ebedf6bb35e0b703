package experiment

// This file is the one interleaved best-of-N measurement loop. It used to
// exist twice — the sharded and metrics gate drivers each carried a copy,
// and the copies had drifted in warmup handling. Both gates (and any
// future A/B gate) now run through RunPaired.
//
// Best-of comparison is deliberate: scheduler noise and frequency scaling
// only ever slow a round down, so the maximum over rounds is the least
// noisy estimator of what each configuration can do. Interleaving (and
// alternating which side runs first each round) keeps slow drift —
// thermal throttling, a busy neighbour — from landing entirely on one
// side.

// PairedSpec configures an interleaved A/B measurement.
type PairedSpec struct {
	// Rounds is the number of paired rounds; each round measures both
	// sides, alternating which goes first.
	Rounds int
	// Warmup, when true, runs one discarded A measurement before round 0
	// to page in the binary and spin up the scheduler.
	Warmup bool
	// Seed is the base seed; round i measures both sides at Seed+i+1 so
	// the pair sees identical workloads, and the warmup runs at Seed^edd1
	// so it never shares a seed with a measured round.
	Seed uint64
}

// PairedRound is one round's pair of measurements.
type PairedRound struct {
	Round  int     `json:"round"`
	AFirst bool    `json:"a_first"`
	A      float64 `json:"a"`
	B      float64 `json:"b"`
}

// PairedResult is the loop's outcome: every round plus the per-side best.
type PairedResult struct {
	Rounds []PairedRound `json:"rounds"`
	BestA  float64       `json:"best_a"`
	BestB  float64       `json:"best_b"`
}

// RunPaired runs the interleaved best-of loop: measure(sideB, seed) must
// execute one measurement of side A (sideB=false) or side B (sideB=true)
// and return its metric, where larger is better.
func RunPaired(spec PairedSpec, measure func(sideB bool, seed uint64) float64) PairedResult {
	if spec.Rounds < 1 {
		spec.Rounds = 1
	}
	if spec.Warmup {
		_ = measure(false, spec.Seed^0xedd1)
	}
	var res PairedResult
	for i := 0; i < spec.Rounds; i++ {
		seed := spec.Seed + uint64(i) + 1
		r := PairedRound{Round: i, AFirst: i%2 == 0}
		if r.AFirst {
			r.A = measure(false, seed)
			r.B = measure(true, seed)
		} else {
			r.B = measure(true, seed)
			r.A = measure(false, seed)
		}
		res.Rounds = append(res.Rounds, r)
		if r.A > res.BestA {
			res.BestA = r.A
		}
		if r.B > res.BestB {
			res.BestB = r.B
		}
	}
	return res
}
