package valuation

import (
	"math"

	"share/internal/dataset"
	"share/internal/regress"
)

// Redundancy scores how substitutable each seller's data is: rᵢ is the
// maximum cosine similarity between seller i's normalized moment profile
// (regress.Moments.Vector — [XᵀX/n ; Xᵀy/n]) and any other seller's,
// clamped to [0, 1]. Near-duplicate sellers (same underlying distribution)
// score close to 1 against each other; sellers contributing genuinely
// different covariance structure score lower. Sellers with empty moments
// (or a mismatched feature count) score 0 — they duplicate nobody.
//
// The measure is symmetric and pairwise, following the data-similarity
// treatment in Pandey et al.: payouts should reward marginal information,
// and two mutually redundant sellers are both discounted rather than
// arbitrarily picking a "first" owner of the shared signal.
func Redundancy(moments []*regress.Moments) []float64 {
	m := len(moments)
	red := make([]float64, m)
	vecs := make([][]float64, m)
	norms := make([]float64, m)
	for i, mo := range moments {
		if mo == nil {
			continue
		}
		v := mo.Vector()
		var n2 float64
		for _, x := range v {
			n2 += x * x
		}
		if n2 > 0 {
			vecs[i] = v
			norms[i] = math.Sqrt(n2)
		}
	}
	for i := 0; i < m; i++ {
		if vecs[i] == nil {
			continue
		}
		for j := i + 1; j < m; j++ {
			if vecs[j] == nil || len(vecs[j]) != len(vecs[i]) {
				continue
			}
			var dot float64
			for t, x := range vecs[i] {
				dot += x * vecs[j][t]
			}
			c := dot / (norms[i] * norms[j])
			if c > 1 {
				c = 1
			}
			if c < 0 {
				c = 0
			}
			if c > red[i] {
				red[i] = c
			}
			if c > red[j] {
				red[j] = c
			}
		}
	}
	return red
}

// DatasetRedundancy computes Redundancy straight from seller chunks for
// the builder-generic estimator, which never builds the moment kernel: one
// O(rows·k²) pass per chunk, then the pairwise cosines. All-empty chunk
// sets return all zeros.
func DatasetRedundancy(chunks []*dataset.Dataset) []float64 {
	k := 0
	for _, c := range chunks {
		if c.Len() > 0 {
			k = c.NumFeatures()
			break
		}
	}
	if k == 0 {
		return make([]float64, len(chunks))
	}
	moments := make([]*regress.Moments, len(chunks))
	for i, c := range chunks {
		moments[i] = regress.DatasetMoments(c, k)
	}
	return Redundancy(moments)
}
