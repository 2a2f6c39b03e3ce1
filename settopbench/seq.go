package main

import "math/rand"

// The workload inputs are generated from the run's seed alone, one stream
// per caller, so the same seed replays the same titles, settop rotation
// and payloads.

// seqLen is the length of a caller's input sequence; cycle n uses entry
// n mod seqLen.
const seqLen = 1024

func stream(seed int64, caller int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(caller)))
}

// titleSequence is a caller's seeded order of titles to open.
func titleSequence(seed int64, caller int, titles []string) []string {
	rng := stream(seed, caller)
	out := make([]string, seqLen)
	for i := range out {
		out[i] = titles[rng.Intn(len(titles))]
	}
	return out
}

// rotation is the seeded order in which power-on callers take settops
// from a pool of n.
func rotation(seed int64, n int) []int {
	return stream(seed, -1).Perm(n)
}

// payloadSequence is a caller's seeded echo payloads, 16 to 128 bytes.
func payloadSequence(seed int64, caller int) [][]byte {
	rng := stream(seed, caller)
	out := make([][]byte, seqLen)
	for i := range out {
		out[i] = make([]byte, 16+rng.Intn(113))
		rng.Read(out[i])
	}
	return out
}
