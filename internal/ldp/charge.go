package ldp

import "math/rand"

// ChargeHook observes one LDP application: eps is the budget the record
// was perturbed under, records the number of records in the call (always 1
// for Mechanism.Perturb). The privacy-budget ledger hangs off this hook —
// a charge is recorded for exactly the perturbations that actually ran,
// not for what a caller planned to run.
type ChargeHook func(eps float64, records int)

// metered wraps a Mechanism so every Perturb reports to a ChargeHook. It
// draws no randomness of its own and forwards the inner mechanism's rng
// stream untouched, so metering never changes a trade's outputs.
type metered struct {
	inner Mechanism
	hook  ChargeHook
}

// Metered wraps m so hook observes every Perturb call. A nil hook returns
// m unchanged.
func Metered(m Mechanism, hook ChargeHook) Mechanism {
	if hook == nil {
		return m
	}
	return &metered{inner: m, hook: hook}
}

// Attrs forwards the inner mechanism's calibration width when it has one;
// -1 mirrors what callers infer for mechanisms without an Attrs method.
func (w *metered) Attrs() int {
	if a, ok := w.inner.(interface{ Attrs() int }); ok {
		return a.Attrs()
	}
	return -1
}

// Perturb implements Mechanism: apply the inner mechanism in place, then
// report.
func (w *metered) Perturb(rng *rand.Rand, record []float64, eps float64) {
	w.inner.Perturb(rng, record, eps)
	w.hook(eps, 1)
}
