// Package share is a from-scratch Go implementation of "Share:
// Stackelberg-Nash based Data Markets" (ICDE 2024): a buyer-leading data
// market whose trading mechanism is a three-stage Stackelberg-Nash game with
// absolute pricing and Nash-competition-driven seller selection.
//
// The implementation lives under internal/:
//
//	core        the three-stage game, backward induction, SNE verification,
//	            mean-field approximation (the paper's contribution)
//	nash        generic numerical Nash solver (cross-validation oracle)
//	ldp         the Laplace LDP mechanism and the inverse fidelity map
//	regress     linear-regression data products and metrics
//	valuation   point- and seller-level Shapley valuation pipelines
//	translog    the broker's translog cost model and parameter fitting
//	dataset     synthetic CCPP data, augmentation, partitioning
//	market      Algorithm 1: the complete trading dynamics
//	baseline    fixed-price and broker-selection comparator mechanisms
//	experiments harnesses regenerating every evaluation figure
//	httpapi     the market as a JSON-over-HTTP service
//	numeric, linalg, stat  the numerical substrate
//
// Executables: cmd/share (CLI simulations), cmd/share-bench (regenerate the
// paper's figures as CSV), cmd/share-server (market as a service). Runnable
// walkthroughs: examples/quickstart, examples/medical, examples/energy,
// examples/multiround.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
package share
