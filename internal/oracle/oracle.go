// Package oracle measures ground truth: it runs (benchmark × input ×
// predictor) combinations, derives per-branch prediction accuracies, and
// applies the paper's 5 %-delta definition of input dependence. It also
// runs and caches 2D-profiling passes so experiments can share work.
//
// Every run is deterministic, so results are memoised per process; the
// experiments regenerate identical numbers on every invocation. The
// Runner is safe for concurrent use: simultaneous requests for the same
// combination share a single computation (singleflight), so the parallel
// experiment engine never duplicates or races a simulation.
package oracle

import (
	"fmt"
	"sync"

	"twodprof/internal/bpred"
	"twodprof/internal/core"
	"twodprof/internal/engine"
	"twodprof/internal/metrics"
	"twodprof/internal/spec"
)

// DefaultMinExec is the eligibility floor: a branch must execute at
// least this many times in both runs of a pair to be labelled. It is
// chosen to align eligibility with 2D-profiling testability (a branch
// needs roughly ExecThreshold executions per slice over a useful number
// of slices before either the oracle or the profiler can say anything
// statistically meaningful about it).
const DefaultMinExec = 2500

// Runner memoises measurement and profiling runs. It is safe for
// concurrent use: each (benchmark, input, predictor[, config]) run is
// computed exactly once even when many goroutines request it at the same
// time — concurrent requesters block on the in-flight computation and
// share its result (singleflight).
type Runner struct {
	// DeltaTh is the input-dependence threshold in percent (paper: 5).
	DeltaTh float64
	// MinExec is the per-run execution floor for eligibility.
	MinExec int64

	accFlight  flightGroup[accKey, *bpred.Accounting]
	repFlight  flightGroup[repKey, *core.Report]
	biasFlight flightGroup[biasKey, *metrics.BiasProfile]
}

type biasKey struct {
	bench, input string
}

type accKey struct {
	bench, input, pred string
}

type repKey struct {
	bench, input, pred string
	cfg                core.Config
}

// NewRunner returns a Runner with the paper's thresholds.
func NewRunner() *Runner {
	return &Runner{
		DeltaTh: metrics.DefaultDeltaTh,
		MinExec: DefaultMinExec,
	}
}

// BiasProfile edge-profiles (or returns the cached edge profile of) a
// benchmark input.
func (r *Runner) BiasProfile(bench, input string) (*metrics.BiasProfile, error) {
	return r.biasFlight.do(biasKey{bench, input}, func() (*metrics.BiasProfile, error) {
		b, err := spec.Get(bench)
		if err != nil {
			return nil, err
		}
		w, err := b.Workload(input)
		if err != nil {
			return nil, err
		}
		return metrics.MeasureBias(w), nil
	})
}

// BiasPairTruth labels bias input dependence (taken-rate delta over the
// threshold) from the (train, other) pair — the edge-profiling analogue
// of PairTruth, grounding the paper's §3.1 claim that 2D-profiling
// extends to edge profiling.
func (r *Runner) BiasPairTruth(bench, other string) (*metrics.Truth, error) {
	at, err := r.BiasProfile(bench, "train")
	if err != nil {
		return nil, err
	}
	ao, err := r.BiasProfile(bench, other)
	if err != nil {
		return nil, err
	}
	return metrics.DefineBias(at, ao, r.DeltaTh, r.MinExec), nil
}

// Accounting runs (or returns the cached) measurement of a benchmark
// input under a predictor configuration name.
func (r *Runner) Accounting(bench, input, pred string) (*bpred.Accounting, error) {
	return r.accFlight.do(accKey{bench, input, pred}, func() (*bpred.Accounting, error) {
		b, err := spec.Get(bench)
		if err != nil {
			return nil, err
		}
		w, err := b.Workload(input)
		if err != nil {
			return nil, err
		}
		p, err := bpred.New(pred)
		if err != nil {
			return nil, err
		}
		return bpred.Measure(w, p), nil
	})
}

// MustAccounting panics on error (for experiment code over the fixed
// benchmark table).
func (r *Runner) MustAccounting(bench, input, pred string) *bpred.Accounting {
	a, err := r.Accounting(bench, input, pred)
	if err != nil {
		panic(err)
	}
	return a
}

// PairTruth labels input dependence from the (train, other) input pair
// under the given target predictor, following the paper's §5.2
// convention that every input set is compared against train.
func (r *Runner) PairTruth(bench, other, pred string) (*metrics.Truth, error) {
	at, err := r.Accounting(bench, "train", pred)
	if err != nil {
		return nil, err
	}
	ao, err := r.Accounting(bench, other, pred)
	if err != nil {
		return nil, err
	}
	return metrics.Define(at, ao, r.DeltaTh, r.MinExec), nil
}

// UnionTruth unions the pair truths of train against each of the listed
// inputs (e.g. {"ref"} for the base set, {"ref","ext-1"} for base-ext1,
// ...).
func (r *Runner) UnionTruth(bench, pred string, others []string) (*metrics.Truth, error) {
	if len(others) == 0 {
		return nil, fmt.Errorf("oracle: UnionTruth needs at least one comparison input")
	}
	truths := make([]*metrics.Truth, 0, len(others))
	for _, in := range others {
		t, err := r.PairTruth(bench, in, pred)
		if err != nil {
			return nil, err
		}
		truths = append(truths, t)
	}
	return metrics.Union(truths...), nil
}

// Profile2D runs (or returns the cached) 2D-profiling pass over a
// benchmark input with the given profiler predictor and configuration.
func (r *Runner) Profile2D(bench, input, pred string, cfg core.Config) (*core.Report, error) {
	return r.repFlight.do(repKey{bench, input, pred, cfg}, func() (*core.Report, error) {
		b, err := spec.Get(bench)
		if err != nil {
			return nil, err
		}
		w, err := b.Workload(input)
		if err != nil {
			return nil, err
		}
		if cfg.Metric != core.MetricAccuracy {
			pred = "" // edge profiling consults no predictor
		}
		return engine.Run(w, cfg, engine.Options{Predictor: pred})
	})
}

// Evaluate2D runs 2D-profiling on the train input and scores it against
// the union ground truth defined by the target predictor and the listed
// comparison inputs. profPred and targetPred may differ (§5.3).
func (r *Runner) Evaluate2D(bench string, cfg core.Config, profPred, targetPred string, truthInputs []string) (metrics.Eval, error) {
	rep, err := r.Profile2D(bench, "train", profPred, cfg)
	if err != nil {
		return metrics.Eval{}, err
	}
	truth, err := r.UnionTruth(bench, targetPred, truthInputs)
	if err != nil {
		return metrics.Eval{}, err
	}
	return metrics.Evaluate(rep, truth), nil
}

// Prefetch runs the listed (bench, input, predictor) measurements
// concurrently to warm the cache; errors surface on the first failed
// combination.
func (r *Runner) Prefetch(combos [][3]string, parallelism int) error {
	if parallelism <= 0 {
		parallelism = 4
	}
	sem := make(chan struct{}, parallelism)
	errc := make(chan error, len(combos))
	var wg sync.WaitGroup
	for _, c := range combos {
		wg.Add(1)
		go func(bench, input, pred string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if _, err := r.Accounting(bench, input, pred); err != nil {
				errc <- err
			}
		}(c[0], c[1], c[2])
	}
	wg.Wait()
	close(errc)
	return <-errc
}
