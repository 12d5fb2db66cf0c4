package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"share/internal/stat"
)

func sample() *Dataset {
	d, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}, []float64{10, 20, 30, 40})
	if err != nil {
		panic(err)
	}
	d.Features, d.Target = []string{"a", "b"}, "y"
	return d
}

func TestValidate(t *testing.T) {
	d := sample()
	if err := d.Validate(); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}
	bad := sample()
	bad.Y = bad.Y[:3]
	if err := bad.Validate(); err == nil {
		t.Error("length mismatch accepted")
	}
	bad = sample()
	bad.X = bad.X[:len(bad.X)-1]
	if err := bad.Validate(); err == nil {
		t.Error("short feature block accepted")
	}
	if err := (&Dataset{X: []float64{1}}).Validate(); err == nil {
		t.Error("features without targets accepted")
	}
	bad = sample()
	bad.Features = []string{"a"}
	if err := bad.Validate(); err == nil {
		t.Error("feature-name mismatch accepted")
	}
	empty := &Dataset{}
	if err := empty.Validate(); err != nil {
		t.Errorf("empty dataset rejected: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := sample()
	c := d.Clone()
	c.X[0] = 99
	c.Y[0] = 99
	if d.X[0] == 99 || d.Y[0] == 99 {
		t.Error("Clone shares row storage with the original")
	}
}

func TestSubsetCopiesRows(t *testing.T) {
	d := sample()
	s := d.Subset([]int{2, 0})
	if s.Len() != 2 || s.Y[0] != 30 || s.Y[1] != 10 {
		t.Fatalf("Subset content wrong: %+v", s)
	}
	s.Row(0)[0] = -1
	if d.Row(2)[0] == -1 {
		t.Error("Subset shares row storage with the original")
	}
}

func TestHead(t *testing.T) {
	d := sample()
	if got := d.Head(2).Len(); got != 2 {
		t.Errorf("Head(2) length = %d", got)
	}
	if got := d.Head(100).Len(); got != 4 {
		t.Errorf("Head(100) length = %d, want 4", got)
	}
}

func TestAppendAndConcat(t *testing.T) {
	a, b := sample(), sample()
	if err := a.Append(b); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if a.Len() != 8 {
		t.Errorf("appended length = %d, want 8", a.Len())
	}
	wide, err := FromRows([][]float64{{1, 2, 3}}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append(wide); err == nil {
		t.Error("Append accepted mismatched widths")
	}
	c, err := Concat(sample(), nil, &Dataset{}, sample())
	if err != nil {
		t.Fatalf("Concat: %v", err)
	}
	if c.Len() != 8 {
		t.Errorf("Concat length = %d, want 8", c.Len())
	}
	if c.Features == nil || c.Features[0] != "a" {
		t.Error("Concat lost feature names")
	}
}

// TestConcatSizesOnce: Concat allocates the result and its two header
// slices once, however many parts it joins, and still skips nil and empty
// parts while keeping every row in order.
func TestConcatSizesOnce(t *testing.T) {
	parts := make([]*Dataset, 12)
	want := 0
	for i := range parts {
		switch i % 4 {
		case 1:
			parts[i] = nil
		case 2:
			parts[i] = &Dataset{Features: []string{"x", "y"}}
		default:
			parts[i] = sample()
			want += parts[i].Len()
		}
	}
	var c *Dataset
	allocs := testing.AllocsPerRun(50, func() {
		var err error
		if c, err = Concat(parts...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 3 {
		t.Errorf("Concat of %d parts made %v allocations, want 3", len(parts), allocs)
	}
	if c.Len() != want || len(c.Y) != want {
		t.Fatalf("Concat kept %d rows and %d targets, want %d", c.Len(), len(c.Y), want)
	}
	if c.Features[0] != "a" {
		t.Errorf("Concat took feature names %v from a skipped part", c.Features)
	}
	w := sample()
	for i := 0; i < c.Len(); i++ {
		if row := c.Row(i); row[0] != w.Row(i % 4)[0] || c.Y[i] != w.Y[i%4] {
			t.Fatalf("row %d = %v/%v, want %v/%v", i, row, c.Y[i], w.Row(i%4), w.Y[i%4])
		}
	}
}

func TestSplit(t *testing.T) {
	d := sample()
	train, test := d.Split(3)
	if train.Len() != 3 || test.Len() != 1 {
		t.Errorf("Split sizes = %d, %d", train.Len(), test.Len())
	}
	train, test = d.Split(-1)
	if train.Len() != 0 || test.Len() != 4 {
		t.Errorf("Split(-1) sizes = %d, %d", train.Len(), test.Len())
	}
	train, test = d.Split(99)
	if train.Len() != 4 || test.Len() != 0 {
		t.Errorf("Split(99) sizes = %d, %d", train.Len(), test.Len())
	}
}

func TestSortByScoreDescending(t *testing.T) {
	d := sample()
	scores := []float64{0.1, 0.9, 0.5, 0.3}
	if err := d.SortByScore(scores); err != nil {
		t.Fatalf("SortByScore: %v", err)
	}
	wantY := []float64{20, 30, 40, 10}
	for i := range wantY {
		if d.Y[i] != wantY[i] {
			t.Errorf("after sort Y[%d] = %v, want %v", i, d.Y[i], wantY[i])
		}
	}
	if err := d.SortByScore([]float64{1}); err == nil {
		t.Error("SortByScore accepted wrong score count")
	}
}

func TestPartitionEqual(t *testing.T) {
	rng := stat.NewRand(1)
	d := SyntheticCCPP(90, rng)
	parts, err := PartitionEqual(d, 9)
	if err != nil {
		t.Fatalf("PartitionEqual: %v", err)
	}
	if len(parts) != 9 {
		t.Fatalf("got %d parts", len(parts))
	}
	total := 0
	for _, p := range parts {
		if p.Len() != 10 {
			t.Errorf("part size = %d, want 10", p.Len())
		}
		total += p.Len()
	}
	if total != 90 {
		t.Errorf("parts cover %d rows, want 90", total)
	}
	if _, err := PartitionEqual(d, 0); err == nil {
		t.Error("PartitionEqual accepted m=0")
	}
	if _, err := PartitionEqual(d, 91); err == nil {
		t.Error("PartitionEqual accepted more chunks than rows")
	}
}

// Property: partitions are disjoint and ordered — chunk k holds rows
// k·per..(k+1)·per−1 of the source.
func TestPartitionContiguityProperty(t *testing.T) {
	rng := stat.NewRand(2)
	prop := func(seed int64) bool {
		r := stat.NewRand(seed)
		n := 20 + r.Intn(200)
		m := 1 + r.Intn(10)
		d := SyntheticCCPP(n, r)
		parts, err := PartitionEqual(d, m)
		if err != nil {
			return false
		}
		per := n / m
		for k, p := range parts {
			if p.Len() != per {
				return false
			}
			for j := 0; j < per; j++ {
				src := d.Row(k*per + j)
				for c := range src {
					if p.Row(j)[c] != src[c] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestAugmentSizeAndNoise(t *testing.T) {
	rng := stat.NewRand(3)
	d := SyntheticCCPP(100, rng)
	aug := Augment(d, 5, 0.1, rng)
	if aug.Len() != 500 {
		t.Fatalf("Augment length = %d, want 500", aug.Len())
	}
	// Noise should be small but non-zero.
	var diff float64
	for i := 0; i < 100; i++ {
		diff += math.Abs(aug.Row(i)[0] - d.Row(i)[0])
	}
	avg := diff / 100
	if avg == 0 {
		t.Error("Augment added no noise")
	}
	if avg > 0.5 {
		t.Errorf("Augment noise too large: mean |Δ| = %v for σ=0.1", avg)
	}
}

func TestShuffleKeepsRowsPaired(t *testing.T) {
	rng := stat.NewRand(4)
	d := SyntheticCCPP(50, rng)
	// Tag targets so we can verify pairing: Y = f(X) originally; use AT.
	orig := map[float64]float64{}
	for i := range d.Y {
		orig[d.Row(i)[0]] = d.Y[i]
	}
	d.Shuffle(rng)
	for i := range d.Y {
		if orig[d.Row(i)[0]] != d.Y[i] {
			t.Fatal("Shuffle broke X/Y pairing")
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := sample()
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if back.Len() != d.Len() || back.Target != "y" || back.Features[1] != "b" {
		t.Fatalf("round trip lost structure: %+v", back)
	}
	for i := range d.Y {
		if back.Y[i] != d.Y[i] {
			t.Errorf("Y[%d] = %v, want %v", i, back.Y[i], d.Y[i])
		}
		for j, v := range d.Row(i) {
			if back.Row(i)[j] != v {
				t.Errorf("X[%d][%d] = %v, want %v", i, j, back.Row(i)[j], v)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("only_one_col\n1\n")); err == nil {
		t.Error("ReadCSV accepted a single-column file")
	}
	if _, err := ReadCSV(strings.NewReader("a,y\nnot_a_number,1\n")); err == nil {
		t.Error("ReadCSV accepted a non-numeric feature")
	}
	if _, err := ReadCSV(strings.NewReader("a,y\n1,nan_text\n")); err == nil {
		t.Error("ReadCSV accepted a non-numeric target")
	}
}

func TestSyntheticCCPPRanges(t *testing.T) {
	rng := stat.NewRand(5)
	d := SyntheticCCPP(0, rng)
	if d.Len() != CCPPSize {
		t.Fatalf("default size = %d, want %d", d.Len(), CCPPSize)
	}
	lo, hi := CCPPBounds()
	for i := range d.Y {
		for j, v := range d.Row(i) {
			if v < lo[j] || v > hi[j] {
				t.Fatalf("row %d feature %d = %v outside [%v, %v]", i, j, v, lo[j], hi[j])
			}
		}
	}
	// Target stays within a plausible CCPP band (generator noise can
	// slightly exceed the historical record extremes).
	ylo, yhi := d.Y[0], d.Y[0]
	for _, y := range d.Y {
		if y < ylo {
			ylo = y
		}
		if y > yhi {
			yhi = y
		}
	}
	if ylo < 400 || yhi > 520 {
		t.Errorf("PE range [%v, %v] implausible for CCPP", ylo, yhi)
	}
}

func TestSyntheticCCPPCorrelationATV(t *testing.T) {
	rng := stat.NewRand(6)
	d := SyntheticCCPP(5000, rng)
	at := make([]float64, d.Len())
	v := make([]float64, d.Len())
	for i := range d.Y {
		at[i], v[i] = d.Row(i)[0], d.Row(i)[1]
	}
	corr := correlation(at, v)
	if corr < 0.6 {
		t.Errorf("corr(AT, V) = %v, want strongly positive (real data ≈ 0.84)", corr)
	}
}

func TestSyntheticCCPPTargetDrivenByAT(t *testing.T) {
	rng := stat.NewRand(7)
	d := SyntheticCCPP(5000, rng)
	at := make([]float64, d.Len())
	for i := range d.Y {
		at[i] = d.Row(i)[0]
	}
	corr := correlation(at, d.Y)
	if corr > -0.8 {
		t.Errorf("corr(AT, PE) = %v, want strongly negative (real data ≈ −0.95)", corr)
	}
}

func correlation(a, b []float64) float64 {
	ma, mb := stat.Mean(a), stat.Mean(b)
	var num, da, db float64
	for i := range a {
		num += (a[i] - ma) * (b[i] - mb)
		da += (a[i] - ma) * (a[i] - ma)
		db += (b[i] - mb) * (b[i] - mb)
	}
	return num / math.Sqrt(da*db)
}

func TestPartitionProportional(t *testing.T) {
	rng := stat.NewRand(8)
	d := SyntheticCCPP(100, rng)
	parts, err := PartitionProportional(d, []float64{1, 2, 7})
	if err != nil {
		t.Fatalf("PartitionProportional: %v", err)
	}
	if len(parts) != 3 {
		t.Fatalf("got %d parts", len(parts))
	}
	sizes := []int{parts[0].Len(), parts[1].Len(), parts[2].Len()}
	if sizes[0] != 10 || sizes[1] != 20 || sizes[2] != 70 {
		t.Errorf("sizes = %v, want [10 20 70]", sizes)
	}
	total := sizes[0] + sizes[1] + sizes[2]
	if total != 100 {
		t.Errorf("rows covered = %d", total)
	}
	// Chunks are contiguous and ordered.
	if parts[1].Row(0)[0] != d.Row(10)[0] || parts[2].Row(0)[0] != d.Row(30)[0] {
		t.Error("chunks not contiguous")
	}
	// Validation.
	if _, err := PartitionProportional(d, nil); err == nil {
		t.Error("accepted no shares")
	}
	if _, err := PartitionProportional(d, []float64{1, 0}); err == nil {
		t.Error("accepted a zero share")
	}
	if _, err := PartitionProportional(d.Head(2), []float64{1, 1, 1}); err == nil {
		t.Error("accepted more chunks than rows")
	}
}

// Property: proportional partitions always cover every row exactly once,
// give every chunk at least one row, and track the requested proportions to
// within one row.
func TestPartitionProportionalProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := stat.NewRand(seed)
		m := 1 + rng.Intn(8)
		n := m + rng.Intn(300)
		d := SyntheticCCPP(n, rng)
		shares := make([]float64, m)
		var total float64
		for i := range shares {
			shares[i] = 0.1 + rng.Float64()*5
			total += shares[i]
		}
		parts, err := PartitionProportional(d, shares)
		if err != nil {
			return false
		}
		covered := 0
		for i, p := range parts {
			if p.Len() < 1 {
				return false
			}
			covered += p.Len()
			exact := shares[i] / total * float64(n)
			if math.Abs(float64(p.Len())-exact) > float64(m)+1 {
				return false
			}
		}
		return covered == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
