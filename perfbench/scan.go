package main

import (
	"fmt"
	"runtime"
	"time"

	secidx "repro"
)

// scanSize fixes the scan workload's inputs.
type scanSize struct {
	rows, sigma int
	theta       float64
	maxLen      int     // range lengths are log-uniform in [1,maxLen]
	queries     int     // distinct ranges, cycled in whole passes
	pool        int     // draws the ranges are a stratified sample of
	samples     int     // answers compared row by row with a column scan
	supersets   int     // approximate answers checked row by row to contain the exact one
	setups      int     // builds timed for setup_s
	eps         float64 // ApproxQuery false-positive bound
}

var scanFull = scanSize{rows: 1 << 21, sigma: 4096, theta: 1.1, maxLen: 256,
	queries: 1024, pool: 65536, samples: 8, supersets: 64, setups: 3, eps: 1.0 / 64}

// runScan is the paper's algorithm on its own: an in-memory unsharded Build,
// one closed-loop client issuing Query and consuming each answer with
// ForEach, then the same ranges through ApproxQuery. No shard, server,
// container, log or epoch is on the path, and there is no block cache.
func runScan(c config, rep *report) error { return scanWith(c, rep, scanFull) }

// scanState is the scan workload after set-up.
type scanState struct {
	sz     scanSize
	ix     *secidx.Index
	ranges []keyRange
	or     *oracle
	rep    *report
	exact  []*secidx.Result // first exact answer of every range
	req    int64
	// check marks the ranges whose approximate answer is still to be
	// checked row by row; materialising every one would take longer than
	// the run.
	check map[int]bool
}

// scanPass is one phase's measurements. The first-pass counts cover each
// range exactly once, so they repeat exactly for a seed.
type scanPass struct {
	lat, approxLat   [][]time.Duration // per pass
	rows             int64
	client           time.Duration
	reads, bitsRead  int64
	answerBits, card int64
	cand, nonAnswer  int64
}

func scanWith(c config, rep *report, sz scanSize) error {
	col := zipfColumn(sz.rows, sz.sigma, sz.theta, c.seed)
	or := newOracle(col, sz.sigma)
	rng := newRand(c.seed, streamRanges)
	draw := func() keyRange { return logUniformRange(rng, sz.sigma, sz.maxLen) }
	ranges := stratified(rng, sz.queries, sz.pool, draw, or.card)
	rep.setting("scan: rows=%d sigma=%d zipf_theta=%g ranges=%d (log-uniform length in [1,%d], stratified from %d) eps=%g",
		sz.rows, sz.sigma, sz.theta, sz.queries, sz.maxLen, sz.pool, sz.eps)
	rep.setting("scan: closed loop, 1 client; Query+ForEach for 70%% of the time, ApproxQuery for 30%%, whole passes")

	var tr *tracer
	if c.trace {
		tr = &tracer{}
	}
	var ix *secidx.Index
	builds := make([]time.Duration, sz.setups)
	for i := range builds {
		ix = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if ix, err = secidx.Build(col, sz.sigma, secidx.Options{}); err != nil {
			return fmt.Errorf("build: %w", err)
		}
		t1 := time.Now()
		tr.record(int64(-1-i), []time.Time{t0, t1}, "Build")
		builds[i] = t1.Sub(t0)
	}
	setup := medianDur(builds)
	rep.metric("setup_s", "setup_s", "s", setup.Seconds())
	rep.metric("index_bits_per_row", "index_bits_per_row", "bits", float64(ix.SizeBits())/float64(sz.rows))

	s := &scanState{sz: sz, ix: ix, ranges: ranges, or: or, rep: rep,
		exact: make([]*secidx.Result, len(ranges)), check: map[int]bool{}}
	crng := newRand(c.seed, streamSample)
	for _, i := range crng.Perm(len(ranges))[:min(sz.supersets, len(ranges))] {
		s.check[i] = true
	}
	base, traced, err := phases(c, tr, s.measure)
	if err != nil {
		return err
	}
	// Compare a seeded sample of answers row by row with a column scan.
	for range sz.samples {
		i := crng.Intn(len(ranges))
		if !or.sameRows(s.exact[i], ranges[i]) {
			rep.wrong++
		}
	}

	p50 := windowedPct(base.lat, 0.5)
	rep.metric("op_p50_us", "query_p50_us", "us", us(p50))
	rep.metric("op_p90_us", "query_p90_us", "us", us(windowedPct(base.lat, 0.9)))
	rep.also("query_p99_us", "us", us(windowedPct(base.lat, 0.99)))
	rep.metric("op_per_s", "query_rows_per_s", "rows/s", float64(base.rows)/base.client.Seconds())
	rep.metric("aux_us", "approx_p50_us", "us", us(windowedPct(base.approxLat, 0.5)))
	rep.setting("scan: %d passes of Query+ForEach and %d of ApproxQuery in the untraced run; latency percentiles are medians over passes",
		len(base.lat), len(base.approxLat))
	if !c.trace {
		return nil
	}

	p := traced
	q := float64(len(ranges))
	rep.layer["core.build_s"] = medianDur(tr.durations("Build")).Seconds()
	calls := tr.durations("Index.Query")
	rep.layer["core.query_call_p50_us"] = us(pct(calls, 0.5))
	rep.layer["core.query_call_p99_us"] = us(pct(calls, 0.99))
	rep.layer["core.blocks_per_query"] = float64(p.reads) / q
	rep.layer["core.read_bits_per_answer_bit"] = ratio(float64(p.bitsRead), float64(p.answerBits))
	rep.layer["core.approx_candidate_ratio"] = ratio(float64(p.cand), float64(p.card))
	rep.layer["core.approx_fp_rate"] = ratio(float64(p.cand-p.card), float64(p.nonAnswer))
	rep.layer["cbitmap.answer_bits_per_row"] = ratio(float64(p.answerBits), float64(p.card))
	rep.layer["cbitmap.consume_ns_per_row"] = ratio(float64(sum(tr.durations("Result.ForEach"))), float64(p.rows))
	return finishTrace(c, tr, "scan", rep, p50, windowedPct(p.lat, 0.5))
}

// measure runs whole passes of Query+ForEach over the ranges for 70% of d,
// then whole passes of ApproxQuery for the rest.
func (s *scanState) measure(tr *tracer, d time.Duration) (scanPass, error) {
	var p scanPass
	end := time.Now().Add(d * 7 / 10)
	for pass := 0; pass == 0 || time.Now().Before(end); pass++ {
		lat := make([]time.Duration, 0, len(s.ranges))
		for i, r := range s.ranges {
			if t, ok := s.exactOne(tr, &p, i, r, pass == 0); ok {
				lat = append(lat, t)
			}
		}
		p.lat = append(p.lat, lat)
	}
	end = time.Now().Add(d * 3 / 10)
	for pass := 0; pass == 0 || time.Now().Before(end); pass++ {
		lat := make([]time.Duration, 0, len(s.ranges))
		for i, r := range s.ranges {
			t, ok, err := s.approxOne(tr, &p, i, r, pass == 0)
			if err != nil {
				return p, err
			}
			if ok {
				lat = append(lat, t)
			}
		}
		p.approxLat = append(p.approxLat, lat)
	}
	return p, nil
}

// exactOne runs one Query+ForEach and returns its latency, or false if the
// call failed.
func (s *scanState) exactOne(tr *tracer, p *scanPass, i int, r keyRange, first bool) (time.Duration, bool) {
	s.req++
	s.rep.attempted++
	t0 := time.Now()
	res, st, err := s.ix.Query(r.lo, r.hi)
	t1 := time.Now()
	if err != nil {
		s.rep.failed++
		return 0, false
	}
	var rows int64
	res.ForEach(func(int64) bool { rows++; return true })
	t2 := time.Now()
	tr.record(s.req, []time.Time{t0, t1, t2}, "Index.Query", "Result.ForEach")
	p.client += t2.Sub(t0)
	p.rows += rows
	if want := s.or.card(r); rows != want || res.Card() != want {
		s.rep.wrong++
	}
	if first {
		p.reads += int64(st.Reads)
		p.bitsRead += st.BitsRead
		p.answerBits += int64(res.SizeBits())
		p.card += rows
		if s.exact[i] == nil {
			s.exact[i] = res
		}
	}
	return t2.Sub(t0), true
}

// approxOne runs one ApproxQuery and returns its latency, or false if the
// call failed. Every answer must admit at least the exact answer's rows; a
// seeded sample is checked row by row to contain the exact answer.
func (s *scanState) approxOne(tr *tracer, p *scanPass, i int, r keyRange, first bool) (time.Duration, bool, error) {
	s.req++
	s.rep.attempted++
	t0 := time.Now()
	a, _, err := s.ix.ApproxQuery(r.lo, r.hi, s.sz.eps)
	t1 := time.Now()
	if err != nil {
		s.rep.failed++
		return 0, false, nil
	}
	tr.record(s.req, []time.Time{t0, t1}, "Index.ApproxQuery")
	card := s.or.card(r)
	if a.CandidateCount() < card {
		s.rep.wrong++
	}
	if !first {
		return t1.Sub(t0), true, nil
	}
	p.cand += a.CandidateCount()
	p.nonAnswer += int64(s.sz.rows) - card
	if !s.check[i] {
		return t1.Sub(t0), true, nil
	}
	delete(s.check, i)
	cands, err := a.Rows()
	if err != nil {
		return 0, false, fmt.Errorf("approx rows: %w", err)
	}
	if int64(len(cands)) != a.CandidateCount() || !superset(cands, s.exact[i]) {
		s.rep.wrong++
	}
	return t1.Sub(t0), true, nil
}

// superset reports whether the sorted rows cands contain every row of exact.
func superset(cands []int64, exact *secidx.Result) bool {
	j, ok := 0, true
	exact.ForEach(func(row int64) bool {
		for j < len(cands) && cands[j] < row {
			j++
		}
		ok = j < len(cands) && cands[j] == row
		return ok
	})
	return ok
}
