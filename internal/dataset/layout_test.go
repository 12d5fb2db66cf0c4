package dataset

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"share/internal/stat"
)

// refSet is the one-slice-per-row layout Dataset used before its features
// moved to one row-major block. Its methods below are that layout's
// implementations, kept as the reference the block layout must match.
type refSet struct {
	Features []string
	Target   string
	X        [][]float64
	Y        []float64
}

func (d *refSet) Len() int { return len(d.X) }

func (d *refSet) NumFeatures() int {
	if len(d.X) == 0 {
		return len(d.Features)
	}
	return len(d.X[0])
}

func (d *refSet) Clone() *refSet {
	out := &refSet{
		Features: append([]string(nil), d.Features...),
		Target:   d.Target,
		X:        make([][]float64, len(d.X)),
		Y:        append([]float64(nil), d.Y...),
	}
	for i, row := range d.X {
		out.X[i] = append([]float64(nil), row...)
	}
	return out
}

func (d *refSet) Subset(idx []int) *refSet {
	out := &refSet{Features: d.Features, Target: d.Target, X: make([][]float64, len(idx)), Y: make([]float64, len(idx))}
	for k, i := range idx {
		out.X[k] = append([]float64(nil), d.X[i]...)
		out.Y[k] = d.Y[i]
	}
	return out
}

func (d *refSet) Head(n int) *refSet {
	if n > d.Len() {
		n = d.Len()
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return d.Subset(idx)
}

func (d *refSet) Append(other *refSet) error {
	if d.Len() > 0 && other.Len() > 0 && d.NumFeatures() != other.NumFeatures() {
		return fmt.Errorf("width mismatch")
	}
	d.X = append(d.X, other.X...)
	d.Y = append(d.Y, other.Y...)
	return nil
}

func refConcat(parts ...*refSet) (*refSet, error) {
	out := &refSet{}
	for _, p := range parts {
		if p == nil || p.Len() == 0 {
			continue
		}
		if out.Features == nil {
			out.Features = p.Features
			out.Target = p.Target
		}
		if err := out.Append(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (d *refSet) Shuffle(rng *rand.Rand) {
	for i := d.Len() - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		d.X[i], d.X[j] = d.X[j], d.X[i]
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	}
}

func (d *refSet) Split(n int) (train, test *refSet) {
	if n < 0 {
		n = 0
	}
	if n > d.Len() {
		n = d.Len()
	}
	train = &refSet{Features: d.Features, Target: d.Target, X: d.X[:n], Y: d.Y[:n]}
	test = &refSet{Features: d.Features, Target: d.Target, X: d.X[n:], Y: d.Y[n:]}
	return train, test
}

func (d *refSet) SortByScore(scores []float64) error {
	if len(scores) != d.Len() {
		return fmt.Errorf("score count")
	}
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	newX := make([][]float64, len(idx))
	newY := make([]float64, len(idx))
	for k, i := range idx {
		newX[k] = d.X[i]
		newY[k] = d.Y[i]
	}
	d.X, d.Y = newX, newY
	return nil
}

func refPartitionEqual(d *refSet, m int) ([]*refSet, error) {
	if m <= 0 || d.Len()/m == 0 {
		return nil, fmt.Errorf("cannot partition")
	}
	per := d.Len() / m
	parts := make([]*refSet, m)
	for k := range parts {
		idx := make([]int, per)
		for j := range idx {
			idx[j] = k*per + j
		}
		parts[k] = d.Subset(idx)
	}
	return parts, nil
}

// refPartitionProportional copies the chunks apportion sizes; the sizing
// arithmetic is layout-free and shared with PartitionProportional.
func refPartitionProportional(d *refSet, shares []float64) ([]*refSet, error) {
	sizes, err := apportion(d.Len(), shares)
	if err != nil {
		return nil, err
	}
	parts := make([]*refSet, len(sizes))
	offset := 0
	for k, size := range sizes {
		idx := make([]int, size)
		for j := range idx {
			idx[j] = offset + j
		}
		parts[k] = d.Subset(idx)
		offset += size
	}
	return parts, nil
}

func refAugment(d *refSet, times int, sigma float64, rng *rand.Rand) *refSet {
	out := &refSet{Features: d.Features, Target: d.Target}
	for t := 0; t < times; t++ {
		for i, row := range d.X {
			nr := make([]float64, len(row))
			for j, v := range row {
				nr[j] = v + stat.Gaussian(rng, 0, sigma)
			}
			out.X = append(out.X, nr)
			out.Y = append(out.Y, d.Y[i]+stat.Gaussian(rng, 0, sigma))
		}
	}
	return out
}

// refSyntheticCCPP is SyntheticCCPP's generator loop in the row layout.
func refSyntheticCCPP(n int, rng *rand.Rand) *refSet {
	d := &refSet{Features: CCPPFeatureNames, Target: CCPPTargetName}
	for i := 0; i < n; i++ {
		at := stat.Uniform(rng, ccppATLo, ccppATHi)
		vMean := ccppVLo + (ccppVHi-ccppVLo)*(at-ccppATLo)/(ccppATHi-ccppATLo)
		v := clampTo(stat.Gaussian(rng, vMean, 7.0), ccppVLo, ccppVHi)
		ap := clampTo(stat.Gaussian(rng, 1013.2, 5.9), ccppAPLo, ccppAPHi)
		rh := clampTo(stat.Gaussian(rng, 73.3, 14.6), ccppRHLo, ccppRHHi)
		pe := 454.0 -
			1.60*(at-19.65) -
			0.12*(v-54.3) +
			0.06*(ap-1013.2) -
			0.10*(rh-73.3) -
			0.006*(at-19.65)*(v-54.3) +
			stat.Gaussian(rng, 0, 4.7)
		d.X = append(d.X, []float64{at, v, ap, rh})
		d.Y = append(d.Y, pe)
	}
	return d
}

// layoutPair builds the same n×k dataset in both layouts.
func layoutPair(t *testing.T, n, k int, rng *rand.Rand) (*Dataset, *refSet) {
	t.Helper()
	ref := &refSet{Target: "y"}
	for j := 0; j < k; j++ {
		ref.Features = append(ref.Features, fmt.Sprintf("f%d", j))
	}
	for i := 0; i < n; i++ {
		row := make([]float64, k)
		for j := range row {
			row[j] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
		}
		ref.X = append(ref.X, row)
		ref.Y = append(ref.Y, rng.NormFloat64()*100)
	}
	d := &Dataset{Features: ref.Features, Target: ref.Target}
	if n > 0 {
		var err error
		if d, err = FromRows(ref.X, ref.Y); err != nil {
			t.Fatal(err)
		}
		d.Features, d.Target = ref.Features, ref.Target
	}
	return d, ref
}

// sameLayout fails unless got holds want's schema, rows and targets bit
// for bit.
func sameLayout(t *testing.T, what string, got *Dataset, want *refSet) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if fmt.Sprint(got.Features) != fmt.Sprint(want.Features) || got.Target != want.Target {
		t.Fatalf("%s: schema %v/%q, want %v/%q", what, got.Features, got.Target, want.Features, want.Target)
	}
	if got.Len() != want.Len() || got.NumFeatures() != want.NumFeatures() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Len(), got.NumFeatures(), want.Len(), want.NumFeatures())
	}
	rows := got.AppendRows(nil)
	for i, row := range want.X {
		if len(rows[i]) != len(row) || len(got.Row(i)) != len(row) {
			t.Fatalf("%s: row %d has width %d, want %d", what, i, len(rows[i]), len(row))
		}
		for j, v := range row {
			if math.Float64bits(rows[i][j]) != math.Float64bits(v) || math.Float64bits(got.Row(i)[j]) != math.Float64bits(v) {
				t.Fatalf("%s: row %d feature %d = %v, want %v", what, i, j, rows[i][j], v)
			}
		}
		if math.Float64bits(got.Y[i]) != math.Float64bits(want.Y[i]) {
			t.Fatalf("%s: target %d = %v, want %v", what, i, got.Y[i], want.Y[i])
		}
	}
}

// TestLayoutMatchesRowSlices runs every Dataset operation on generated
// shapes — no rows, one row and many; one to six features — in both the
// row-major layout and the one-slice-per-row reference, and requires the
// results to agree bit for bit, errors included.
func TestLayoutMatchesRowSlices(t *testing.T) {
	rng := stat.NewRand(31)
	for _, n := range []int{0, 1, 2, 9} {
		for k := 1; k <= 6; k++ {
			t.Run(fmt.Sprintf("%dx%d", n, k), func(t *testing.T) {
				d, ref := layoutPair(t, n, k, rng)
				sameLayout(t, "FromRows", d, ref)
				sameLayout(t, "Clone", d.Clone(), ref.Clone())

				idx := make([]int, n+3)
				for i := range idx {
					if n > 0 {
						idx[i] = rng.Intn(n)
					}
				}
				if n == 0 {
					idx = nil
				}
				sub := d.Subset(idx)
				sameLayout(t, "Subset", sub, ref.Subset(idx))
				if n > 0 {
					sub.X[0]++
					sameLayout(t, "Subset leaves its source", d, ref)
				}
				for _, h := range []int{0, 1, n / 2, n + 1} {
					sameLayout(t, fmt.Sprintf("Head(%d)", h), d.Head(h), ref.Head(h))
				}

				d2, ref2 := layoutPair(t, n, k, rng)
				got, want := d.Clone(), ref.Clone()
				if err := got.Append(d2); err != nil {
					t.Fatal(err)
				}
				_ = want.Append(ref2)
				sameLayout(t, "Append", got, want)
				wide, refWide := layoutPair(t, 1, k+1, rng)
				if gotErr, wantErr := got.Append(wide), want.Append(refWide); (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("Append of a wider row: err %v, reference err %v", gotErr, wantErr)
				}

				c, err := Concat(d, nil, &Dataset{}, d2, d)
				if err != nil {
					t.Fatal(err)
				}
				rc, _ := refConcat(ref, nil, &refSet{}, ref2, ref)
				sameLayout(t, "Concat", c, rc)
				into := &Dataset{X: make([]float64, 3, 64), Y: make([]float64, 1, 64), Features: []string{"stale"}}
				if err := ConcatInto(into, d2, d); err != nil {
					t.Fatal(err)
				}
				rc, _ = refConcat(ref2, ref)
				sameLayout(t, "ConcatInto", into, rc)

				got, want = d.Clone(), ref.Clone()
				seed := rng.Int63()
				got.Shuffle(stat.NewRand(seed))
				want.Shuffle(stat.NewRand(seed))
				sameLayout(t, "Shuffle", got, want)

				for _, s := range []int{-1, 0, 1, n / 2, n, n + 1} {
					tr, te := d.Split(s)
					rtr, rte := ref.Split(s)
					sameLayout(t, fmt.Sprintf("Split(%d) train", s), tr, rtr)
					sameLayout(t, fmt.Sprintf("Split(%d) test", s), te, rte)
					if err := tr.Append(d2); err != nil {
						t.Fatal(err)
					}
					sameLayout(t, "Split train grown", d, ref)
				}

				scores := make([]float64, n)
				for i := range scores {
					scores[i] = float64(rng.Intn(3)) // ties exercise stability
				}
				got, want = d.Clone(), ref.Clone()
				if err := got.SortByScore(scores); err != nil {
					t.Fatal(err)
				}
				_ = want.SortByScore(scores)
				sameLayout(t, "SortByScore", got, want)

				for m := 1; m <= n+1; m++ {
					parts, err := PartitionEqual(d, m)
					refParts, refErr := refPartitionEqual(ref, m)
					if (err == nil) != (refErr == nil) || len(parts) != len(refParts) {
						t.Fatalf("PartitionEqual(%d): err %v, reference err %v", m, err, refErr)
					}
					for i := range parts {
						sameLayout(t, fmt.Sprintf("PartitionEqual(%d)[%d]", m, i), parts[i], refParts[i])
					}
					shares := make([]float64, m)
					for i := range shares {
						shares[i] = 0.1 + rng.Float64()
					}
					parts, err = PartitionProportional(d, shares)
					refParts, refErr = refPartitionProportional(ref, shares)
					if (err == nil) != (refErr == nil) || len(parts) != len(refParts) {
						t.Fatalf("PartitionProportional(%v): err %v, reference err %v", shares, err, refErr)
					}
					for i := range parts {
						sameLayout(t, fmt.Sprintf("PartitionProportional(%d)[%d]", m, i), parts[i], refParts[i])
					}
				}

				seed = rng.Int63()
				sameLayout(t, "Augment", Augment(d, 3, 0.1, stat.NewRand(seed)), refAugment(ref, 3, 0.1, stat.NewRand(seed)))

				var buf bytes.Buffer
				if err := d.WriteCSV(&buf); err != nil {
					t.Fatal(err)
				}
				back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				sameLayout(t, "WriteCSV/ReadCSV", back, ref)
			})
		}
	}
	for _, n := range []int{1, 57} {
		seed := rng.Int63()
		sameLayout(t, fmt.Sprintf("SyntheticCCPP(%d)", n), SyntheticCCPP(n, stat.NewRand(seed)), refSyntheticCCPP(n, stat.NewRand(seed)))
	}
}

// FuzzFromRows: FromRows rejects ragged rows, a row count that differs from
// the target count, and empty input with an error, never a panic; anything
// it accepts reads back exactly, row by row, and owns its copy.
func FuzzFromRows(f *testing.F) {
	f.Add([]byte{4, 4, 4}, int8(0), int64(1))
	f.Add([]byte{4, 4, 3}, int8(0), int64(2))
	f.Add([]byte{2, 2}, int8(1), int64(3))
	f.Add([]byte{}, int8(0), int64(4))
	f.Add([]byte{0, 0}, int8(0), int64(5))
	f.Add([]byte{6}, int8(-1), int64(6))
	f.Fuzz(func(t *testing.T, widths []byte, extra int8, seed int64) {
		if len(widths) > 64 {
			widths = widths[:64]
		}
		x := make([][]float64, len(widths))
		bits := uint64(seed)
		next := func() float64 {
			bits = bits*6364136223846793005 + 1442695040888963407
			return math.Float64frombits(bits)
		}
		ragged := false
		for i, w := range widths {
			x[i] = make([]float64, w%7)
			for j := range x[i] {
				x[i][j] = next()
			}
			ragged = ragged || len(x[i]) != len(x[0])
		}
		y := make([]float64, max(0, len(x)+int(extra)%3))
		for i := range y {
			y[i] = next()
		}
		d, err := FromRows(x, y)
		if ragged || len(x) != len(y) || len(x) == 0 {
			if err == nil {
				t.Fatalf("FromRows accepted %d rows (ragged %v) with %d targets", len(x), ragged, len(y))
			}
			return
		}
		if err != nil {
			t.Fatalf("FromRows rejected %d rectangular rows with matching targets: %v", len(x), err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("accepted dataset fails validation: %v", err)
		}
		if d.Len() != len(x) || d.NumFeatures() != len(x[0]) {
			t.Fatalf("shape %dx%d, want %dx%d", d.Len(), d.NumFeatures(), len(x), len(x[0]))
		}
		want := make([][]float64, len(x))
		for i, row := range x {
			want[i] = append([]float64(nil), row...)
			clear(row) // the dataset must own a copy
		}
		rows := d.AppendRows(nil)
		for i, row := range want {
			for j, v := range row {
				if math.Float64bits(rows[i][j]) != math.Float64bits(v) || math.Float64bits(d.Row(i)[j]) != math.Float64bits(v) {
					t.Fatalf("row %d feature %d read back %v, want %v", i, j, rows[i][j], v)
				}
			}
			if math.Float64bits(d.Y[i]) != math.Float64bits(y[i]) {
				t.Fatalf("target %d read back %v, want %v", i, d.Y[i], y[i])
			}
		}
	})
}

// TestFromRowsRaggedAllocatesOnlyItsInput: a wide first row followed by
// many empty ones is rejected before the block is sized, so the bytes
// FromRows allocates stay near the size of its input. Sizing the block from
// the first row alone would ask for rows × width floats — 32 MiB here, and
// terabytes for a request body of a few MiB.
func TestFromRowsRaggedAllocatesOnlyItsInput(t *testing.T) {
	const n = 2048
	x := make([][]float64, n)
	x[0] = make([]float64, n)
	for i := 1; i < n; i++ {
		x[i] = []float64{}
	}
	y := make([]float64, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := FromRows(x, y)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("FromRows accepted ragged rows")
	}
	// The input is 16 KiB of floats and 48 KiB of row headers.
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("rejecting %d ragged rows allocated %d B, want at most 1 MiB", n, got)
	}
}

// TestRowRetainedBytes pins what a held dataset costs per 4-feature CCPP
// row: its 32 B of features and 8 B of target, plus allocator rounding —
// no per-row object or slice header. One slice per row cost 64.6 B.
func TestRowRetainedBytes(t *testing.T) {
	const sets, rows, bound = 100, 400, 44.0
	keep := make([]*Dataset, sets)
	rng := stat.NewRand(12)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = SyntheticCCPP(rows, rng)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	perRow := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (sets * rows)
	if perRow > bound {
		t.Fatalf("a held 4-feature row costs %.1f B, want at most %.0f B", perRow, bound)
	}
	t.Logf("a held 4-feature row costs %.1f B", perRow)
}
