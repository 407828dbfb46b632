package main

import (
	"path/filepath"
	"time"
)

// phases runs measure for the whole run with tracing off or, in a traced
// run, for half the time with tracing off and then for half with tr on, so
// the two halves give the tracing overhead.
func phases[M any](c config, tr *tracer, measure func(*tracer, time.Duration) (M, error)) (untraced, traced M, err error) {
	if !c.trace {
		untraced, err = measure(nil, c.duration(1))
		return untraced, traced, err
	}
	if untraced, err = measure(nil, c.duration(0.5)); err != nil {
		return untraced, traced, err
	}
	traced, err = measure(tr, c.duration(0.5))
	return untraced, traced, err
}

// finishTrace computes self times, writes the spans next to the run's other
// files and records the layer metrics every traced run has.
func finishTrace(c config, tr *tracer, name string, rep *report, untracedP50, tracedP50 time.Duration) error {
	tr.finish()
	rep.layer["trace.overhead_frac"] = ratio(float64(tracedP50), float64(untracedP50)) - 1
	path := filepath.Join(c.dir, "spans-"+name+".tsv")
	rep.setting("spans=%s (%d spans)", path, len(tr.spans))
	return tr.write(path)
}
