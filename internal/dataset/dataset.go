// Package dataset provides the data substrate of Share: a tabular Dataset
// type, CSV input/output, the synthetic Combined Cycle Power Plant (CCPP)
// generator standing in for the UCI dataset the paper evaluates on, the
// ×100 + Gaussian-noise augmentation used for the 1M-row efficiency
// experiments, quality-based ordering, and partitioning across sellers.
//
// Substitution note (see DESIGN.md §2): the module is built offline, so the
// real UCI CCPP file is unavailable. SyntheticCCPP generates rows with the
// published feature ranges and a calibrated noisy linear-plus-interaction
// target so that ordinary least squares reaches explained variance ≈ 0.93,
// matching the linear-regression fit on the genuine dataset. The market
// mechanism observes the data only through OLS metrics, Shapley
// contributions, and LDP perturbation, all of which this generator exercises
// identically.
package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"share/internal/stat"
)

// Dataset is an in-memory tabular dataset: a feature matrix X (rows ×
// features) and a target vector Y with one entry per row.
type Dataset struct {
	// Features names each column of X; optional but carried through
	// subsetting operations when present.
	Features []string
	// Target names the Y column.
	Target string
	// X holds the feature matrix row-major in one block: row i is
	// X[i*k:(i+1)*k] for k = NumFeatures(). A dataset is two pointer-free
	// allocations, so a row costs its floats and nothing else.
	X []float64
	// Y holds the regression target for each row.
	Y []float64
}

// FromRows copies one-slice-per-row features and their targets into a new
// dataset. It is the one converter for rows that arrive as [][]float64 —
// request bodies, WAL records, snapshots, literals — and rejects input with
// no rows, ragged rows, or a row count that differs from the target count.
// Every row is checked before the block is sized, so the block never holds
// more floats than the input carries.
func FromRows(x [][]float64, y []float64) (*Dataset, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("dataset: %d feature rows but %d targets", len(x), len(y))
	}
	if len(x) == 0 {
		return nil, errors.New("dataset: no rows")
	}
	k := len(x[0])
	for i, row := range x {
		if len(row) != k {
			return nil, fmt.Errorf("dataset: row %d has %d features, want %d", i, len(row), k)
		}
	}
	d := &Dataset{X: make([]float64, 0, len(x)*k), Y: append([]float64(nil), y...)}
	for _, row := range x {
		d.X = append(d.X, row...)
	}
	return d, nil
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return len(d.Y) }

// NumFeatures returns the number of feature columns: the row width of a
// non-empty set, else the number of feature names.
func (d *Dataset) NumFeatures() int {
	if len(d.Y) == 0 {
		return len(d.Features)
	}
	return len(d.X) / len(d.Y)
}

// Row returns row i's features, aliasing X. Its capacity ends at the row,
// so appending to it copies rather than overwriting row i+1.
func (d *Dataset) Row(i int) []float64 {
	k := d.NumFeatures()
	return d.X[i*k : (i+1)*k : (i+1)*k]
}

// AppendRows appends a one-slice-per-row view of d's features to dst and
// returns the extended slice. The rows alias X; only the row headers are
// new, and they land in dst's spare capacity when it has enough — the
// shape the JSON wire and disk formats carry.
func (d *Dataset) AppendRows(dst [][]float64) [][]float64 {
	for i := range d.Y {
		dst = append(dst, d.Row(i))
	}
	return dst
}

// Validate checks internal consistency: X holds exactly Len() rows of
// NumFeatures() values, and the feature names, when present, match.
func (d *Dataset) Validate() error {
	n, k := d.Len(), d.NumFeatures()
	if n == 0 {
		if len(d.X) != 0 {
			return fmt.Errorf("dataset: %d feature values but no targets", len(d.X))
		}
		return nil
	}
	if len(d.X) != n*k {
		return fmt.Errorf("dataset: %d feature values do not fill %d rows", len(d.X), n)
	}
	if d.Features != nil && len(d.Features) != k {
		return fmt.Errorf("dataset: %d feature names for %d columns", len(d.Features), k)
	}
	return nil
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	return &Dataset{
		Features: append([]string(nil), d.Features...),
		Target:   d.Target,
		X:        append([]float64(nil), d.X...),
		Y:        append([]float64(nil), d.Y...),
	}
}

// Subset returns a new dataset containing the rows at the given indices, in
// order. Rows are copied so the subset can be perturbed independently.
func (d *Dataset) Subset(idx []int) *Dataset {
	k := d.NumFeatures()
	out := &Dataset{
		Features: d.Features,
		Target:   d.Target,
		X:        make([]float64, len(idx)*k),
		Y:        make([]float64, len(idx)),
	}
	for r, i := range idx {
		copy(out.X[r*k:(r+1)*k], d.X[i*k:(i+1)*k])
		out.Y[r] = d.Y[i]
	}
	return out
}

// Head returns a subset of the first n rows (or all rows if n exceeds Len).
func (d *Dataset) Head(n int) *Dataset {
	if n > d.Len() {
		n = d.Len()
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return d.Subset(idx)
}

// Append concatenates other onto d in place. The feature widths must match.
func (d *Dataset) Append(other *Dataset) error {
	if d.Len() > 0 && other.Len() > 0 && d.NumFeatures() != other.NumFeatures() {
		return fmt.Errorf("dataset: cannot append %d-feature rows to %d-feature dataset",
			other.NumFeatures(), d.NumFeatures())
	}
	d.X = append(d.X, other.X...)
	d.Y = append(d.Y, other.Y...)
	return nil
}

// Concat returns the concatenation of the given datasets as a new dataset.
// Nil and empty inputs are skipped. The result's blocks are sized once for
// the whole join.
func Concat(parts ...*Dataset) (*Dataset, error) {
	out := &Dataset{}
	if err := ConcatInto(out, parts...); err != nil {
		return nil, err
	}
	return out, nil
}

// ConcatInto is Concat into dst: dst is overwritten with the join, reusing
// its X and Y blocks when they have the capacity, so a caller joining many
// coalitions into one dataset allocates only when a join outgrows the
// largest before it.
func ConcatInto(dst *Dataset, parts ...*Dataset) error {
	rows, floats := 0, 0
	for _, p := range parts {
		if p != nil {
			rows += p.Len()
			floats += len(p.X)
		}
	}
	x, y := dst.X[:0], dst.Y[:0]
	if cap(x) < floats {
		x = make([]float64, 0, floats)
	}
	if cap(y) < rows {
		y = make([]float64, 0, rows)
	}
	*dst = Dataset{X: x, Y: y}
	for _, p := range parts {
		if p == nil || p.Len() == 0 {
			continue
		}
		if dst.Features == nil {
			dst.Features = p.Features
			dst.Target = p.Target
		}
		if err := dst.Append(p); err != nil {
			return err
		}
	}
	return nil
}

// Shuffle permutes the rows of d in place using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	k := d.NumFeatures()
	for i := d.Len() - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		ri, rj := d.X[i*k:(i+1)*k], d.X[j*k:(j+1)*k]
		for c := range ri {
			ri[c], rj[c] = rj[c], ri[c]
		}
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	}
}

// Split partitions d into a training set of the first n rows and a test set
// of the remainder. Both are views sharing d's blocks; the training view's
// capacity ends at row n, so appending to it never overwrites the test rows.
func (d *Dataset) Split(n int) (train, test *Dataset) {
	if n < 0 {
		n = 0
	}
	if n > d.Len() {
		n = d.Len()
	}
	c := n * d.NumFeatures()
	train = &Dataset{Features: d.Features, Target: d.Target, X: d.X[:c:c], Y: d.Y[:n:n]}
	test = &Dataset{Features: d.Features, Target: d.Target, X: d.X[c:], Y: d.Y[n:]}
	return train, test
}

// SortByScore reorders the rows of d in place so that scores descend:
// the highest-quality row (largest score) comes first. scores must have one
// entry per row. This implements the paper's quality sort, where per-point
// quality is measured by Monte Carlo Shapley contribution to model training.
func (d *Dataset) SortByScore(scores []float64) error {
	if len(scores) != d.Len() {
		return fmt.Errorf("dataset: %d scores for %d rows", len(scores), d.Len())
	}
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	sorted := d.Subset(idx)
	d.X, d.Y = sorted.X, sorted.Y
	return nil
}

// PartitionEqual splits d into m contiguous chunks of equal size (the paper
// distributes 9,000 quality-sorted CCPP rows over 100 sellers, 90 each). Rows
// beyond m·⌊Len/m⌋ are dropped, mirroring the paper's exact split. Chunks are
// contiguous, so after a quality sort the sellers receive data of distinctly
// graded quality — chunk 0 the best block, the last chunk the worst — which
// is what lets the Shapley weight updates differentiate them.
func PartitionEqual(d *Dataset, m int) ([]*Dataset, error) {
	if m <= 0 {
		return nil, fmt.Errorf("dataset: cannot partition into %d chunks", m)
	}
	per := d.Len() / m
	if per == 0 {
		return nil, fmt.Errorf("dataset: %d rows cannot fill %d chunks", d.Len(), m)
	}
	parts := make([]*Dataset, m)
	for k := 0; k < m; k++ {
		idx := make([]int, per)
		for j := 0; j < per; j++ {
			idx[j] = k*per + j
		}
		parts[k] = d.Subset(idx)
	}
	return parts, nil
}

// PartitionProportional splits d into contiguous chunks sized proportionally
// to shares (which need not be normalized). Every share must be positive and
// every chunk gets at least one row; rounding remainders go to the largest
// shares. Use this for markets whose sellers hold differently-sized datasets
// (the paper's equal split is the shares-all-equal special case).
func PartitionProportional(d *Dataset, shares []float64) ([]*Dataset, error) {
	sizes, err := apportion(d.Len(), shares)
	if err != nil {
		return nil, err
	}
	parts := make([]*Dataset, len(sizes))
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

// apportion sizes PartitionProportional's chunks: n rows over len(shares)
// chunks by largest remainder, with a floor of one row each.
func apportion(n int, shares []float64) ([]int, error) {
	m := len(shares)
	if m == 0 {
		return nil, errors.New("dataset: no shares")
	}
	var total float64
	for i, s := range shares {
		if !(s > 0) {
			return nil, fmt.Errorf("dataset: share %d must be positive, got %g", i, s)
		}
		total += s
	}
	if n < m {
		return nil, fmt.Errorf("dataset: %d rows cannot fill %d chunks", n, m)
	}
	sizes := make([]int, m)
	fracs := make([]float64, m)
	assigned := 0
	for i, s := range shares {
		exact := s / total * float64(n)
		sizes[i] = int(math.Floor(exact))
		if sizes[i] < 1 {
			sizes[i] = 1
		}
		fracs[i] = exact - math.Floor(exact)
		assigned += sizes[i]
	}
	// Distribute leftovers (or claw back overshoot from the floor rule).
	for assigned < n {
		best := 0
		for i := 1; i < m; i++ {
			if fracs[i] > fracs[best] {
				best = i
			}
		}
		sizes[best]++
		fracs[best] = -1
		assigned++
	}
	for assigned > n {
		// Shrink the largest chunk above one row.
		big := -1
		for i := 0; i < m; i++ {
			if sizes[i] > 1 && (big < 0 || sizes[i] > sizes[big]) {
				big = i
			}
		}
		if big < 0 {
			return nil, fmt.Errorf("dataset: cannot apportion %d rows over %d chunks", n, m)
		}
		sizes[big]--
		assigned--
	}
	return sizes, nil
}

// Augment replicates d `times` times and adds N(0, sigma²) noise to every
// feature and target, reproducing the paper's synthetic 1,000,000-row corpus
// (CCPP ×100 with N(0, 0.1²) noise).
func Augment(d *Dataset, times int, sigma float64, rng *rand.Rand) *Dataset {
	k := d.NumFeatures()
	out := &Dataset{
		Features: d.Features,
		Target:   d.Target,
		X:        make([]float64, 0, len(d.X)*times),
		Y:        make([]float64, 0, d.Len()*times),
	}
	for t := 0; t < times; t++ {
		for i, y := range d.Y {
			for _, v := range d.X[i*k : (i+1)*k] {
				out.X = append(out.X, v+stat.Gaussian(rng, 0, sigma))
			}
			out.Y = append(out.Y, y+stat.Gaussian(rng, 0, sigma))
		}
	}
	return out
}

// WriteCSV writes the dataset with a header row (feature names then target).
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append(append([]string{}, d.Features...), d.Target)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: writing header: %w", err)
	}
	rec := make([]string, d.NumFeatures()+1)
	for i := range d.Y {
		for j, v := range d.Row(i) {
			rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		rec[len(rec)-1] = strconv.FormatFloat(d.Y[i], 'g', -1, 64)
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: writing row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a dataset written by WriteCSV (or any CSV whose last column
// is the numeric target and preceding columns are numeric features), with a
// header row.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	if len(header) < 2 {
		return nil, fmt.Errorf("dataset: need at least one feature and one target column, got %d columns", len(header))
	}
	d := &Dataset{
		Features: header[:len(header)-1],
		Target:   header[len(header)-1],
	}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading line %d: %w", line, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dataset: line %d has %d fields, want %d", line, len(rec), len(header))
		}
		for j, field := range rec[:len(rec)-1] {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d field %d: %w", line, j, err)
			}
			d.X = append(d.X, v)
		}
		y, err := strconv.ParseFloat(rec[len(rec)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d target: %w", line, err)
		}
		d.Y = append(d.Y, y)
	}
	return d, nil
}
