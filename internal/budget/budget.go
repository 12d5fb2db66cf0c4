// Package budget tracks cumulative per-seller privacy loss across trading
// rounds. Every trade applies an ε-LDP mechanism to each participating
// seller's records (internal/ldp); this package composes those per-round ε
// into a running total per seller and refuses further participation once a
// seller's budget is exhausted.
//
// Two composition rules are selectable per market:
//
//	basic     ε_total = Σ εᵢ — the sequential composition theorem.
//	advanced  ε_total(δ′) = √(2·ln(1/δ′)·Σ εᵢ²) + Σ εᵢ·(e^εᵢ − 1) — the
//	          strong composition bound (Dwork & Roth, Thm 3.20), which is
//	          sublinear in the number of rounds for small per-round ε at
//	          the price of a δ′ slack.
//
// The ledger is deliberately not self-synchronizing: in this codebase it
// lives under the owning pool.Market's write lock, where every trade,
// top-up, WAL replay and snapshot already serializes.
package budget

import (
	"fmt"
	"math"
)

// Composition names a rule for composing per-round ε into a total.
type Composition string

const (
	// Basic is sequential composition: spent ε is the plain sum.
	Basic Composition = "basic"
	// Advanced is the strong composition bound with a δ′ slack.
	Advanced Composition = "advanced"
)

// DefaultDelta is the δ′ slack used by advanced composition when the
// config leaves Delta zero.
const DefaultDelta = 1e-6

// ampCap bounds a single round's ε·(e^ε − 1) term so full-fidelity trades
// (ε up to ldp.MaxEpsilon) keep the composed total finite and
// JSON-serializable. Any budget a caller can configure is exhausted long
// before the cap matters.
const ampCap = 1e18

// ParseComposition validates a wire/flag composition name; "" selects
// Basic.
func ParseComposition(s string) (Composition, error) {
	switch Composition(s) {
	case "", Basic:
		return Basic, nil
	case Advanced:
		return Advanced, nil
	default:
		return "", fmt.Errorf("budget: unknown composition %q (want %q or %q)", s, Basic, Advanced)
	}
}

// Config fixes a market's budget policy at creation time.
type Config struct {
	// Epsilon is the per-seller ε budget; must be positive and finite.
	Epsilon float64 `json:"epsilon"`
	// Composition selects the rule; "" means Basic.
	Composition Composition `json:"composition,omitempty"`
	// Delta is advanced composition's δ′ slack in (0,1); 0 means
	// DefaultDelta. Ignored under Basic.
	Delta float64 `json:"delta,omitempty"`
}

// Validate reports whether the config describes a usable budget policy.
func (c Config) Validate() error {
	if math.IsNaN(c.Epsilon) || math.IsInf(c.Epsilon, 0) || c.Epsilon <= 0 {
		return fmt.Errorf("budget: epsilon must be positive and finite, got %v", c.Epsilon)
	}
	if _, err := ParseComposition(string(c.Composition)); err != nil {
		return err
	}
	if c.Delta != 0 && !(c.Delta > 0 && c.Delta < 1) {
		return fmt.Errorf("budget: delta must be in (0,1), got %v", c.Delta)
	}
	return nil
}

// delta returns the effective δ′.
func (c Config) delta() float64 {
	if c.Delta > 0 {
		return c.Delta
	}
	return DefaultDelta
}

// Account is one seller's ledger state: the sufficient statistics for both
// composition rules plus any topped-up extra budget. It serializes into
// snapshots and WAL records, so the fields are stable wire surface.
type Account struct {
	// Charges counts composed rounds.
	Charges int `json:"charges,omitempty"`
	// SumEps is Σ εᵢ over the seller's charged rounds.
	SumEps float64 `json:"sum_eps,omitempty"`
	// SumSq is Σ εᵢ² (advanced composition's variance term).
	SumSq float64 `json:"sum_sq,omitempty"`
	// SumAmp is Σ εᵢ·(e^εᵢ − 1), each term capped so the total stays
	// finite (advanced composition's drift term).
	SumAmp float64 `json:"sum_amp,omitempty"`
	// Extra is budget added by top-ups, on top of the market's Epsilon.
	Extra float64 `json:"extra,omitempty"`
}

// add composes one round's ε into the account.
func (a *Account) add(eps float64) {
	a.Charges++
	a.SumEps += eps
	a.SumSq += eps * eps
	amp := eps * math.Expm1(eps)
	if math.IsNaN(amp) || amp > ampCap {
		amp = ampCap
	}
	a.SumAmp += amp
}

// Spent is the composed cumulative ε under the config's rule.
func (a Account) Spent(c Config) float64 {
	if c.Composition == Advanced {
		return math.Sqrt(2*math.Log(1/c.delta())*a.SumSq) + a.SumAmp
	}
	return a.SumEps
}

// ExhaustedError reports that charging a seller would overrun its budget.
// The seller must be excluded from the round; the error is typed so the
// HTTP layer can refuse the trade with a 409 instead of absorbing the
// refusal into prices.
type ExhaustedError struct {
	// SellerID names the exhausted seller.
	SellerID string
	// Budget is the seller's total budget (market ε plus top-ups).
	Budget float64
	// Spent is the composed ε already consumed.
	Spent float64
	// Requested is the ε the refused round would have charged.
	Requested float64
}

// Error implements error.
func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("budget: seller %q exhausted: spent %.6g of ε=%.6g, round needs ε=%.6g",
		e.SellerID, e.Spent, e.Budget, e.Requested)
}

// Ledger holds every seller's account under one market's budget config.
// Accounts outlive roster membership deliberately: privacy loss is a fact
// about the seller's data, so a seller that leaves and rejoins resumes its
// spent total rather than resetting it.
type Ledger struct {
	cfg  Config
	acct map[string]*Account
}

// NewLedger builds an empty ledger under cfg.
func NewLedger(cfg Config) (*Ledger, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Composition == "" {
		cfg.Composition = Basic
	}
	return &Ledger{cfg: cfg, acct: make(map[string]*Account)}, nil
}

// account returns the seller's live account, creating it on first touch.
func (l *Ledger) account(id string) *Account {
	a := l.acct[id]
	if a == nil {
		a = &Account{}
		l.acct[id] = a
	}
	return a
}

// Budget is the seller's total budget: the market ε plus its top-ups.
func (l *Ledger) Budget(id string) float64 {
	if a := l.acct[id]; a != nil {
		return l.cfg.Epsilon + a.Extra
	}
	return l.cfg.Epsilon
}

// Spent is the seller's composed cumulative ε.
func (l *Ledger) Spent(id string) float64 {
	if a := l.acct[id]; a != nil {
		return a.Spent(l.cfg)
	}
	return 0
}

// Check projects one round's charges without applying them. ids[i] is
// charged eps[i]; entries with eps[i] <= 0 are skipped (no mechanism noise
// at ε=0 means no privacy loss). The first seller (in ids order) whose
// projected composed total would exceed its budget aborts the round with
// an *ExhaustedError; on nil every charge in the batch fits.
func (l *Ledger) Check(ids []string, eps []float64) error {
	for i, id := range ids {
		if eps[i] <= 0 {
			continue
		}
		proj := Account{}
		if a := l.acct[id]; a != nil {
			proj = *a
		}
		spent := proj.Spent(l.cfg)
		proj.add(eps[i])
		if b := l.Budget(id); proj.Spent(l.cfg) > b {
			return &ExhaustedError{SellerID: id, Budget: b, Spent: spent, Requested: eps[i]}
		}
	}
	return nil
}

// Charge applies one round's charges unconditionally — admission is
// Check's job, and WAL replay must re-apply committed charges verbatim
// even against a policy that would refuse them today.
func (l *Ledger) Charge(ids []string, eps []float64) {
	for i, id := range ids {
		if eps[i] <= 0 {
			continue
		}
		l.account(id).add(eps[i])
	}
}

// TopUp credits add extra budget to one seller and returns its new total
// budget. The amount must be positive and finite. Replay applies every
// logged grant with TopUp, as written; a new grant goes through Grant.
func (l *Ledger) TopUp(id string, add float64) (float64, error) {
	if math.IsNaN(add) || math.IsInf(add, 0) || add <= 0 {
		return 0, fmt.Errorf("budget: top-up must be positive and finite, got %v", add)
	}
	a := l.account(id)
	a.Extra += add
	return l.cfg.Epsilon + a.Extra, nil
}

// Grant is TopUp for a new grant, which must also leave the seller's total
// budget finite: no response or snapshot can render an infinite one. A
// grant that would not is refused and changes nothing.
func (l *Ledger) Grant(id string, add float64) (float64, error) {
	extra := add
	if a := l.acct[id]; a != nil {
		extra += a.Extra
	}
	if math.IsInf(l.cfg.Epsilon+extra, 0) {
		return 0, fmt.Errorf("budget: a top-up of %v would make the budget infinite", add)
	}
	return l.TopUp(id, add)
}

// Accounts returns a deep copy of every non-empty account, keyed by seller
// — the snapshot surface.
func (l *Ledger) Accounts() map[string]Account {
	if len(l.acct) == 0 {
		return nil
	}
	out := make(map[string]Account, len(l.acct))
	for id, a := range l.acct {
		if *a == (Account{}) {
			continue
		}
		out[id] = *a
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Restore replaces the ledger's accounts with a snapshot's.
func (l *Ledger) Restore(accounts map[string]Account) {
	l.acct = make(map[string]*Account, len(accounts))
	for id, a := range accounts {
		cp := a
		l.acct[id] = &cp
	}
}
