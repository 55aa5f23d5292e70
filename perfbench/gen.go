package main

import (
	"math/rand"

	"doacross"
)

// rng returns the generator of one input stream of a seed; the streams of
// one seed are independent of each other.
func rng(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// vectors draws count standard-normal vectors of length n.
func vectors(r *rand.Rand, count, n int) [][]float64 {
	out := make([][]float64, count)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			out[i][j] = r.NormFloat64()
		}
	}
	return out
}

// cloneTri returns a deep copy of t.
func cloneTri(t *doacross.Triangular) *doacross.Triangular {
	c := *t
	c.RowPtr = append([]int(nil), t.RowPtr...)
	c.Col = append([]int(nil), t.Col...)
	c.Val = append([]float64(nil), t.Val...)
	c.Diag = append([]float64(nil), t.Diag...)
	return &c
}
