package valuation

import (
	"errors"
	"math"
	"math/rand"

	"share/internal/dataset"
	"share/internal/regress"
	"share/internal/stat"
)

// The seed-era estimators below are reference implementations: the
// production kernel and builder estimators are checked against them, and
// BenchmarkSellerShapley times the kernel against SellerShapleyTMC.

// SellerShapleyTMC is the seed-era row-streaming estimator for per-seller
// Shapley values: truncated Monte Carlo permutation sampling with an
// incremental OLS accumulator, so each permutation costs O(total rows) in
// Gram updates plus one O(k³) solve per chunk, independent of how the
// permutation interleaves sellers. It draws one stat.Perm from rng per
// permutation.
//
// truncateTol stops scanning a permutation once the prefix utility is within
// the tolerance of the grand coalition's (0 disables truncation);
// permutations ≤ 0 defaults to the paper's 100.
func SellerShapleyTMC(chunks []*dataset.Dataset, test *dataset.Dataset, permutations int, truncateTol float64, rng *rand.Rand) ([]float64, error) {
	m := len(chunks)
	if m == 0 {
		return nil, errors.New("valuation: no seller chunks")
	}
	if test.Len() == 0 {
		return nil, errors.New("valuation: empty test set")
	}
	if rng == nil {
		return nil, errors.New("valuation: nil random source")
	}
	if permutations <= 0 {
		permutations = 100
	}
	k := 0
	for _, c := range chunks {
		if c.Len() > 0 {
			k = c.NumFeatures()
			break
		}
	}
	if k == 0 {
		return nil, errors.New("valuation: all seller chunks are empty")
	}
	inc := regress.NewIncremental(k)

	var grand float64
	if truncateTol > 0 {
		for _, c := range chunks {
			inc.AddDataset(c)
		}
		grand = evalModel(inc, test)
		inc.Reset()
	}

	sv := make([]float64, m)
	for p := 0; p < permutations; p++ {
		perm := stat.Perm(rng, m)
		inc.Reset()
		prev := 0.0
		for _, idx := range perm {
			inc.AddDataset(chunks[idx])
			cur := evalModel(inc, test)
			sv[idx] += cur - prev
			prev = cur
			if truncateTol > 0 && math.Abs(grand-cur) <= truncateTol {
				break
			}
		}
	}
	inv := 1 / float64(permutations)
	for i := range sv {
		sv[i] *= inv
	}
	return sv, nil
}

// ChunkUtility returns a Shapley utility over seller chunks: the explained
// variance of a model trained on the union of the coalition's chunks and
// scored on test. Coalition evaluations are memoized, since Monte Carlo
// permutations revisit prefixes rarely but Exact revisits subsets never —
// the memo mostly serves the grand/empty coalitions and tests.
func ChunkUtility(chunks []*dataset.Dataset, test *dataset.Dataset) Utility {
	memo := make(map[string]float64)
	return func(coalition []int) float64 {
		key := coalitionKey(coalition)
		if v, ok := memo[key]; ok {
			return v
		}
		parts := make([]*dataset.Dataset, len(coalition))
		for i, c := range coalition {
			parts[i] = chunks[c]
		}
		joined, err := dataset.Concat(parts...)
		if err != nil || joined.Len() == 0 {
			memo[key] = 0
			return 0
		}
		v := regress.ExplainedVariance(joined, test)
		memo[key] = v
		return v
	}
}

func coalitionKey(coalition []int) string {
	// Coalitions arrive sorted; a compact textual key suffices.
	b := make([]byte, 0, len(coalition)*3)
	for _, c := range coalition {
		b = append(b, byte(c), byte(c>>8), byte(c>>16))
	}
	return string(b)
}
