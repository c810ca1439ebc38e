// Package experiment is the evaluation harness: it reproduces every figure
// of the paper's Section V on the synthetic Dublin and Seattle substrates,
// averaging placement quality over randomized trials exactly as the paper
// averages over 1,000 runs.
//
// A run produces a Result: one series per algorithm, one point per RAP
// budget k, with mean, standard deviation, and a 95% confidence interval of
// the number of attracted customers per day. Results render as aligned
// text tables or CSV.
package experiment

import (
	"errors"
	"fmt"
	"math/rand"

	"roadside/internal/baseline"
	"roadside/internal/classify"
	"roadside/internal/core"
)

// Errors reported by the harness.
var (
	ErrBadConfig = errors.New("experiment: invalid config")
	ErrUnknown   = errors.New("experiment: unknown algorithm")
)

// Canonical algorithm names accepted in configs.
const (
	AlgoAlgorithm1     = "algorithm1"
	AlgoAlgorithm2     = "algorithm2"
	AlgoAlgorithm3     = "algorithm3"
	AlgoAlgorithm4     = "algorithm4"
	AlgoCombined       = "combined"
	AlgoLazy           = "lazy"
	AlgoMaxCardinality = "maxcardinality"
	AlgoMaxVehicles    = "maxvehicles"
	AlgoMaxCustomers   = "maxcustomers"
	AlgoRandom         = "random"
)

// Point is one (k, statistics) sample of a series.
type Point struct {
	K    int     `json:"k"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	CI95 float64 `json:"ci95"`
}

// Series is one algorithm's curve across RAP budgets.
type Series struct {
	Algo   string  `json:"algo"`
	Points []Point `json:"points"`
}

// Result is a completed experiment (one sub-figure of the paper).
type Result struct {
	// Name is a short machine identifier (e.g. "fig10a").
	Name string `json:"name"`
	// Title describes the setting in paper terms.
	Title string `json:"title"`
	// Series holds one curve per algorithm in config order.
	Series []Series `json:"series"`
	// Trials is the number of randomized repetitions averaged.
	Trials int `json:"trials"`
}

// GeneralConfig parameterizes a general-scenario experiment (Section III
// algorithms on a trace-derived city).
type GeneralConfig struct {
	// City selects the substrate: "dublin" or "seattle".
	City string
	// UtilityName is "threshold", "linear" or "sqrt"; D is its threshold
	// in feet.
	UtilityName string
	D           float64
	// ShopClass picks where shops are sampled: center, city, or suburb.
	ShopClass classify.Class
	// Ks are the RAP budgets to sweep (default 1..10).
	Ks []int
	// Trials is the number of random shop draws to average (the paper
	// uses 1,000; the default here is 50 for tractable reruns).
	Trials int
	// Seed makes the experiment bit-reproducible.
	Seed int64
	// Algorithms lists the solvers to compare, in display order.
	Algorithms []string
	// Routes overrides the demand size (0 = default).
	Routes int
	// PassengersPerBus scales route volume (0 = paper default for the
	// city: 100 for Dublin, 200 for Seattle).
	PassengersPerBus float64
	// Alpha is the advertisement attractiveness (0 = the paper's 0.001).
	Alpha float64
	// UseTracePipeline routes demand through GPS generation and
	// map-matching instead of using ground-truth routes directly.
	UseTracePipeline bool
}

// ManhattanConfig parameterizes a Manhattan-grid experiment (Section IV
// algorithms on crossing demand).
type ManhattanConfig struct {
	// N is the grid dimension (odd); the region side equals D. Zero
	// derives N from D and BlockFeet so the physical block length stays
	// fixed while D varies, matching the paper's Fig. 13 sweep where a
	// larger D region spans more Seattle streets.
	N int
	// BlockFeet is the nominal street spacing used to derive N when N is
	// zero (default 500 ft, Seattle's downtown block scale).
	BlockFeet float64
	// FlowsPerLine scales crossing demand with the region size: the total
	// flow count is FlowsPerLine x N (default derives from Flows or the
	// default demand).
	FlowsPerLine float64
	// UtilityName and D as in GeneralConfig; D is also the region side.
	UtilityName string
	D           float64
	Ks          []int
	Trials      int
	Seed        int64
	Algorithms  []string
	// Flows overrides the demand size (0 = default).
	Flows int
	Alpha float64
	// OptBudget caps Algorithm 3/4's exhaustive branch (0 = skip the
	// exhaustive branch entirely for speed, using the greedy fallback).
	OptBudget int64
}

// DefaultKs is the RAP budget sweep used across the paper's figures.
func DefaultKs() []int { return []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} }

// solveGeneral dispatches a general-scenario algorithm by name.
func solveGeneral(name string, e *core.Engine, rng *rand.Rand) (*core.Placement, error) {
	if greedy, ok := core.Solver(name); ok {
		return greedy(e)
	}
	switch name {
	case AlgoMaxCardinality:
		return baseline.MaxCardinality(e)
	case AlgoMaxVehicles:
		return baseline.MaxVehicles(e)
	case AlgoMaxCustomers:
		return baseline.MaxCustomers(e)
	case AlgoRandom:
		return baseline.Random(e, rng)
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
}

// prefixNested reports whether the named algorithm's placement with budget
// K contains its placement with every smaller budget as a prefix, allowing
// one solver run to be evaluated at every k. This holds for all greedy and
// ranking algorithms, and for Random (a prefix of a uniform sample is a
// uniform sample); it does not hold for the two-stage Manhattan solvers.
func prefixNested(name string) bool {
	switch name {
	case AlgoAlgorithm3, AlgoAlgorithm4:
		return false
	default:
		return true
	}
}
