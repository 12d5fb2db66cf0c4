// Command share-client talks to a running share-server from the command
// line: manage markets, register sellers, fetch quotes, execute trades,
// inspect the ledger and weights.
//
// Usage:
//
//	share-client [-server URL] [-market ID] <command> [flags]
//
// Commands:
//
//	health                          server liveness and default-market state
//	markets                         list hosted markets
//	create-market -id ID [...]      create a market
//	delete-market -id ID            drain and delete a market
//	register -id ID -lambda λ [-rows N]   register a synthetic-data seller
//	add-seller                      alias for register (roster-churn phrasing)
//	remove-seller -id ID            release a seller from the roster
//	seller -id ID                   fetch one seller resource (weight, ε budget)
//	topup-budget -id ID -add X      grant a seller X more ε budget
//	sellers  [-limit N] [-offset N] list sellers with weights
//	watch                           follow the market's live event stream (SSE)
//	quote  [-n N] [-v V] [...]      solve the game without trading
//	quotes -demands JSON            solve a batch of demands concurrently
//	trade  [-n N] [-v V] [...]      execute one trading round
//	trades [-limit N] [-offset N]   print the transaction ledger
//	weights                         print the broker's dataset weights
//
// With -market ID the per-market commands go through the /v2 resource API
// against that market; without it they use the flat /v1 aliases (the
// server's default market).
//
// Example session (against `share-server -demo 10`):
//
//	share-client quote -n 200 -v 0.8
//	share-client create-market -id alpha
//	share-client -market alpha register -id s1 -lambda 0.4
//	share-client -market alpha quotes -demands '[{"n":200,"v":0.8},{"n":400,"v":0.9}]'
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"share/internal/httpapi"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("share-client: ")

	server := flag.String("server", "http://localhost:8080", "share-server base URL")
	marketID := flag.String("market", "", "operate on this market via /v2 (empty = the default market via /v1)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}

	client := httpapi.NewClient(*server, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	cmd := flag.Arg(0)
	args := flag.Args()[1:]
	if err := dispatch(ctx, client, *marketID, cmd, args); err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: share-client [-server URL] [-market ID] <command> [flags]

commands:
  health         server liveness and default-market state
  markets        list hosted markets
  create-market  create a market: -id ID [-solver NAME] [-seed N] [-durability MODE]
                 [-epsilon-budget ε] [-composition basic|advanced]
  delete-market  drain and delete a market: -id ID
  register       register a seller: -id ID -lambda λ [-rows N]
  add-seller     alias for register
  remove-seller  release a seller from the roster: -id ID
  seller         fetch one seller resource (weight, roster epoch, ε budget): -id ID
  topup-budget   grant a seller more ε budget: -id ID -add X
  sellers        list registered sellers: [-limit N] [-offset N]
  watch          follow the market's live event stream until interrupted
  quote          equilibrium quote: [-n N] [-v V] [-theta1 θ] [-rho1 ρ] [-rho2 ρ] [-solver NAME]
  quotes         batch quotes: -demands '[{"n":...,"v":...},...]' (or "-" for stdin)
  trade          execute one round (same flags as quote, plus -product)
  trades         print the transaction ledger: [-limit N] [-offset N]
  weights        print broker dataset weights

-market ID routes the per-market commands through /v2/markets/ID; without
it they use the flat /v1 aliases (the server's default market).
`)
}

func dispatch(ctx context.Context, c *httpapi.Client, marketID, cmd string, args []string) error {
	switch cmd {
	case "health":
		h, err := c.Health(ctx)
		if err != nil {
			return err
		}
		return printJSON(h)
	case "markets":
		ms, err := c.Markets(ctx)
		if err != nil {
			return err
		}
		return printJSON(ms)
	case "create-market":
		fs := flag.NewFlagSet("create-market", flag.ExitOnError)
		id := fs.String("id", "", "market id (required)")
		solver := fs.String("solver", "", "equilibrium backend for the market (empty = server default)")
		seed := fs.Int64("seed", 0, "pin the market's random seed")
		durability := fs.String("durability", "", "WAL commit mode for the market: sync | group | async (empty = server default)")
		epsBudget := fs.Float64("epsilon-budget", 0, "per-seller privacy budget ε (explicit 0 disables budgeting; unset = server default)")
		composition := fs.String("composition", "", "ε-composition rule: basic | advanced (empty = basic)")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if *id == "" {
			return fmt.Errorf("create-market: -id is required")
		}
		spec := httpapi.MarketSpec{ID: *id, Solver: *solver, Durability: *durability, Composition: *composition}
		if flagSet(fs, "seed") {
			spec.Seed = seed
		}
		if flagSet(fs, "epsilon-budget") {
			spec.EpsilonBudget = epsBudget
		}
		info, err := c.CreateMarket(ctx, spec)
		if err != nil {
			return err
		}
		return printJSON(info)
	case "delete-market":
		fs := flag.NewFlagSet("delete-market", flag.ExitOnError)
		id := fs.String("id", "", "market id (required)")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if *id == "" {
			return fmt.Errorf("delete-market: -id is required")
		}
		if err := c.DeleteMarket(ctx, *id); err != nil {
			return err
		}
		fmt.Printf("market %q deleted\n", *id)
		return nil
	case "register", "add-seller":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		id := fs.String("id", "", "seller id (required)")
		lambda := fs.Float64("lambda", 0.5, "privacy sensitivity λ")
		rows := fs.Int("rows", 200, "synthetic rows to mint")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if *id == "" {
			return fmt.Errorf("register: -id is required")
		}
		reg := httpapi.SellerRegistration{ID: *id, Lambda: *lambda, SyntheticRows: *rows}
		var (
			info httpapi.SellerInfo
			err  error
		)
		if marketID != "" {
			info, err = c.RegisterSellerIn(ctx, marketID, reg)
		} else {
			info, err = c.RegisterSeller(ctx, reg)
		}
		if err != nil {
			return err
		}
		return printJSON(info)
	case "remove-seller":
		fs := flag.NewFlagSet("remove-seller", flag.ExitOnError)
		id := fs.String("id", "", "seller id (required)")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if *id == "" {
			return fmt.Errorf("remove-seller: -id is required")
		}
		if err := c.RemoveSellerIn(ctx, orDefault(marketID), *id); err != nil {
			return err
		}
		fmt.Printf("seller %q released\n", *id)
		return nil
	case "seller":
		fs := flag.NewFlagSet("seller", flag.ExitOnError)
		id := fs.String("id", "", "seller id (required)")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if *id == "" {
			return fmt.Errorf("seller: -id is required")
		}
		info, err := c.SellerIn(ctx, orDefault(marketID), *id)
		if err != nil {
			return err
		}
		return printJSON(info)
	case "topup-budget":
		fs := flag.NewFlagSet("topup-budget", flag.ExitOnError)
		id := fs.String("id", "", "seller id (required)")
		add := fs.Float64("add", 0, "ε to grant on top of the seller's budget (required, > 0)")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if *id == "" {
			return fmt.Errorf("topup-budget: -id is required")
		}
		info, err := c.TopUpBudgetIn(ctx, orDefault(marketID), *id, *add)
		if err != nil {
			return err
		}
		return printJSON(info)
	case "watch":
		// The stream is open-ended: bypass the dispatch deadline and run
		// until the user interrupts (^C) or the server closes the stream.
		wctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		err := c.Watch(wctx, orDefault(marketID), func(ev httpapi.StreamEvent) error {
			return printJSON(ev)
		})
		if err == context.Canceled || wctx.Err() != nil {
			return nil
		}
		return err
	case "sellers":
		page, err := parsePage(cmd, args)
		if err != nil {
			return err
		}
		var s []httpapi.SellerInfo
		if marketID != "" || page != (httpapi.Page{}) {
			s, err = c.SellersIn(ctx, orDefault(marketID), page)
		} else {
			s, err = c.Sellers(ctx)
		}
		if err != nil {
			return err
		}
		return printJSON(s)
	case "quote", "trade":
		d, err := parseDemand(cmd, args)
		if err != nil {
			return err
		}
		if cmd == "quote" {
			if marketID != "" {
				qs, err := c.QuoteBatch(ctx, marketID, []httpapi.Demand{d})
				if err != nil {
					return err
				}
				return printJSON(qs[0])
			}
			q, err := c.Quote(ctx, d)
			if err != nil {
				return err
			}
			return printJSON(q)
		}
		var tr httpapi.TradeResult
		if marketID != "" {
			tr, err = c.TradeIn(ctx, marketID, d)
		} else {
			tr, err = c.Trade(ctx, d)
		}
		if err != nil {
			return err
		}
		return printJSON(tr)
	case "quotes":
		fs := flag.NewFlagSet("quotes", flag.ExitOnError)
		raw := fs.String("demands", "", `JSON array of demands, e.g. '[{"n":200,"v":0.8}]' ("-" reads stdin; required)`)
		if err := fs.Parse(args); err != nil {
			return err
		}
		demands, err := parseDemands(*raw)
		if err != nil {
			return err
		}
		qs, err := c.QuoteBatch(ctx, orDefault(marketID), demands)
		if err != nil {
			return err
		}
		return printJSON(qs)
	case "trades":
		page, err := parsePage(cmd, args)
		if err != nil {
			return err
		}
		var ts []httpapi.TradeResult
		if marketID != "" || page != (httpapi.Page{}) {
			ts, err = c.TradesIn(ctx, orDefault(marketID), page)
		} else {
			ts, err = c.Trades(ctx)
		}
		if err != nil {
			return err
		}
		return printJSON(ts)
	case "weights":
		var (
			w   []float64
			err error
		)
		if marketID != "" {
			w, err = c.WeightsIn(ctx, marketID)
		} else {
			w, err = c.Weights(ctx)
		}
		if err != nil {
			return err
		}
		return printJSON(w)
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// orDefault maps an unset -market onto the server's default-market ID for
// commands that only exist on /v2.
func orDefault(marketID string) string {
	if marketID == "" {
		return httpapi.DefaultMarketID
	}
	return marketID
}

// flagSet reports whether the named flag was passed explicitly (0 is a
// valid seed and a meaningful ε budget — "disable" — so default values
// cannot signal absence).
func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func parsePage(cmd string, args []string) (httpapi.Page, error) {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	limit := fs.Int("limit", 0, "cap the listing (0 = no limit)")
	offset := fs.Int("offset", 0, "skip the first N items")
	if err := fs.Parse(args); err != nil {
		return httpapi.Page{}, err
	}
	return httpapi.Page{Limit: *limit, Offset: *offset}, nil
}

func parseDemand(cmd string, args []string) (httpapi.Demand, error) {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	n := fs.Float64("n", 500, "demanded data quantity N")
	v := fs.Float64("v", 0.8, "required performance v")
	theta1 := fs.Float64("theta1", 0, "dataset-quality concern θ₁ (0 = server default)")
	rho1 := fs.Float64("rho1", 0, "dataset-quality sensitivity ρ₁ (0 = server default)")
	rho2 := fs.Float64("rho2", 0, "performance sensitivity ρ₂ (0 = server default)")
	product := fs.String("product", "", "data product for trades: ols|ridge|logistic|mean|histogram (empty = ols)")
	solver := fs.String("solver", "", "equilibrium backend for this request (empty = market default)")
	if err := fs.Parse(args); err != nil {
		return httpapi.Demand{}, err
	}
	return httpapi.Demand{
		N: *n, V: *v, Theta1: *theta1, Rho1: *rho1, Rho2: *rho2,
		Product: *product, Solver: *solver,
	}, nil
}

// parseDemands decodes the -demands JSON array; "-" reads it from stdin.
func parseDemands(raw string) ([]httpapi.Demand, error) {
	if raw == "" {
		return nil, fmt.Errorf("quotes: -demands is required")
	}
	if raw == "-" {
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			return nil, fmt.Errorf("quotes: reading stdin: %w", err)
		}
		raw = string(b)
	}
	dec := json.NewDecoder(strings.NewReader(raw))
	dec.DisallowUnknownFields()
	var demands []httpapi.Demand
	if err := dec.Decode(&demands); err != nil {
		return nil, fmt.Errorf("quotes: decoding -demands: %w", err)
	}
	return demands, nil
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
