package engine

import (
	"errors"
	"fmt"

	"twodprof/internal/bpred"
)

// Option validation. New rejects nonsense configurations up front with
// typed errors instead of letting an absurd worker count spawn a
// runaway decode pool three layers deeper.

// MaxWorkers caps the decode pool. Zero and negative values are not
// errors — they mean one worker per available CPU. 4096 is far above
// any useful setting while keeping the pool's allocations bounded.
const MaxWorkers = 4096

// An OptionError reports one invalid Options field. Validate joins one
// per violation, so errors.As finds the first and errors.Join's
// message lists them all.
type OptionError struct {
	Field  string // Options field name
	Value  int    // the rejected value
	Reason string // why it was rejected
}

// Error implements error.
func (e *OptionError) Error() string {
	return fmt.Sprintf("engine: invalid option %s = %d (%s)", e.Field, e.Value, e.Reason)
}

// Validate checks the worker count against its ceiling and the
// aggregation mode against the known set. Zero values throughout (the
// all-defaults Options) are valid. The Predictor name is not checked
// here: its validity depends on the metric, so New resolves it against
// the registry itself.
func (o Options) Validate() error {
	var errs []error
	if o.Workers > MaxWorkers {
		errs = append(errs, &OptionError{"Workers", o.Workers, fmt.Sprintf("above MaxWorkers %d", MaxWorkers)})
	}
	if o.Aggregation != bpred.AggShared && o.Aggregation != bpred.AggPrivate {
		errs = append(errs, &OptionError{"Aggregation", int(o.Aggregation), "not a known aggregation mode (shared, private)"})
	}
	return errors.Join(errs...)
}
