package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	secidx "repro"
)

// serveSize fixes the serve workload's inputs and load.
type serveSize struct {
	rows, sigma int
	theta       float64
	shards      int
	cacheBlocks int     // per shard
	rangeLen    int     // ℓ of every request
	posTheta    float64 // Zipf skew of request positions
	probes      int     // direct ShardedIndex.Query probes per phase
	setups      int
	ladder      []float64 // offered rates, requests/s, ascending
	nominal     int       // ladder index of the below-knee rate
	overload    int       // ladder index of the overloaded rate
	limit       time.Duration
	samples     int // answers compared row by row with a column scan
}

var serveFull = serveSize{rows: 1 << 21, sigma: 4096, theta: 1.1, shards: 4, cacheBlocks: 256,
	rangeLen: 16, posTheta: 1.1, probes: 256, setups: 3,
	ladder: []float64{250, 1000, 2500, 4000, 6000}, nominal: 0, overload: 4,
	limit: 50 * time.Millisecond, samples: 8}

// runServe serves a sharded index reopened from its file through
// ShardedIndex.Serve, driven open-loop by Poisson arrivals over hot,
// overlapping ranges: the traffic micro-batching, the shared-scan planner
// and the block cache exploit, all of which scan bypasses.
func runServe(c config, rep *report) error { return serveWith(c, rep, serveFull) }

type serveState struct {
	sz     serveSize
	c      config
	or     *oracle
	hot    *hotSet
	probes []keyRange
	opened *secidx.Opened
	srv    *secidx.Server
	rep    *report
	req    int64
}

// outcome is one served request.
type outcome struct {
	at            time.Duration // due time, from the start of the rung
	lat, lag      time.Duration // from its due time; submit lateness
	wait, service time.Duration
	err           error
	answered, ok  bool
	r             keyRange
	res           *secidx.Result // kept for the row-by-row sample
}

// ladderRun is one phase: per rung outcomes plus counter deltas.
type ladderRun struct {
	rungs           [][]outcome
	rungDur         []time.Duration
	dev             secidx.DeviceStats
	st              secidx.ServerStats
	probeLat        [][]time.Duration // per pass
	probes          int64
	probeReads      int64
	probeBits       int64
	probeAnswerBits int64
	probeRows       int64
}

func serveWith(c config, rep *report, sz serveSize) error {
	col := zipfColumn(sz.rows, sz.sigma, sz.theta, c.seed)
	or := newOracle(col, sz.sigma)
	rng := newRand(c.seed, streamArrivals)
	hot := hotRanges(rng, sz.sigma, sz.rangeLen, sz.posTheta, or.card)
	probes := stratified(rng, sz.probes, 16*sz.probes, func() keyRange { return hot.draw(rng) }, or.card)
	cfg := secidx.ServerConfig{}
	rep.setting("serve: rows=%d sigma=%d zipf_theta=%g shards=%d pread cache_blocks=%d/shard range_len=%d position_zipf_theta=%g",
		sz.rows, sz.sigma, sz.theta, sz.shards, sz.cacheBlocks, sz.rangeLen, sz.posTheta)
	rep.setting("serve: open loop, Poisson arrivals; ladder=%v req/s (nominal %g, overload %g); latency limit %v from due time; server config defaults (MaxQueue 256, MaxBatch 32, MaxWait 500us, 2 workers)",
		sz.ladder, sz.ladder[sz.nominal], sz.ladder[sz.overload], sz.limit)

	var tr *tracer
	if c.trace {
		tr = &tracer{}
	}
	s := &serveState{sz: sz, c: c, or: or, hot: hot, probes: probes, rep: rep}
	defer s.close()
	path := filepath.Join(c.dir, "serve.sidx")
	defer os.Remove(path)
	var setups []time.Duration
	var fileBytes int64
	for i := range sz.setups {
		if err := s.close(); err != nil {
			return err
		}
		os.Remove(path)
		runtime.GC()
		t0 := time.Now()
		sx, err := secidx.BuildSharded(col, sz.sigma, secidx.ShardOptions{Shards: sz.shards})
		if err != nil {
			return fmt.Errorf("build: %w", err)
		}
		t1 := time.Now()
		if err := sx.WriteFile(path); err != nil {
			return fmt.Errorf("write: %w", err)
		}
		t2 := time.Now()
		op, err := secidx.OpenFile(path, secidx.OpenOptions{Mode: secidx.ModePread, CacheBlocks: sz.cacheBlocks})
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		s.opened = op
		if s.srv, err = op.Sharded.Serve(cfg); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		t3 := time.Now()
		tr.record(int64(-1-i), []time.Time{t0, t1, t2, t3}, "BuildSharded", "ShardedIndex.WriteFile", "OpenFile+Serve")
		setups = append(setups, t3.Sub(t0))
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		fileBytes = fi.Size()
	}
	rep.metric("setup_s", "setup_s", "s", medianDur(setups).Seconds())
	rep.metric("index_bits_per_row", "index_bits_per_row", "bits", float64(fileBytes*8)/float64(sz.rows))

	base, traced, err := phases(c, tr, s.measure)
	if err != nil {
		return err
	}
	nominal, nominalDur := base.rungs[sz.nominal], base.rungDur[sz.nominal]
	p50 := s.windowed(nominal, nominalDur, 0.5)
	rep.metric("op_p50_us", "serve_p50_us", "us", us(p50))
	rep.metric("op_p90_us", "serve_p90_us", "us", us(s.windowed(nominal, nominalDur, 0.9)))
	rep.also("serve_p99_us", "us", us(s.windowed(nominal, nominalDur, 0.99)))
	over, overDur := base.rungs[sz.overload], base.rungDur[sz.overload]
	rep.metric("op_per_s", "serve_throughput_qps", "req/s", s.rate(over, overDur, noLimit))
	rep.also("serve_goodput_qps", "req/s", s.rate(over, overDur, sz.limit))
	rep.metric("aux_us", "direct_query_p50_us", "us", us(windowedPct(base.probeLat, 0.5)))
	rep.also("serve_max_qps", "req/s", s.maxQPS(base))
	for k, rung := range base.rungs {
		l := s.latencies(rung, c.duration(1))
		rep.setting("serve: rung %g req/s: %d requests, p50 %.0fus p99 %.0fus, goodput %.0f/s",
			sz.ladder[k], len(rung), us(pct(l, 0.5)), us(pct(l, 0.99)), s.rate(rung, base.rungDur[k], sz.limit))
	}
	if !c.trace {
		return nil
	}

	p := traced
	rep.layer["core.build_s"] = medianDur(tr.durations("BuildSharded")).Seconds()
	rep.layer["container.write_s"] = medianDur(tr.durations("ShardedIndex.WriteFile")).Seconds()
	rep.layer["container.open_s"] = medianDur(tr.durations("OpenFile+Serve")).Seconds()
	calls := tr.durations("ShardedIndex.Query")
	rep.layer["core.query_call_p50_us"] = us(pct(calls, 0.5))
	rep.layer["core.query_call_p99_us"] = us(pct(calls, 0.99))
	rep.layer["shard.direct_query_us"] = us(pct(calls, 0.5))
	rep.layer["core.blocks_per_query"] = ratio(float64(p.probeReads), float64(p.probes))
	rep.layer["core.read_bits_per_answer_bit"] = ratio(float64(p.probeBits), float64(p.probeAnswerBits))
	rep.layer["cbitmap.answer_bits_per_row"] = ratio(float64(p.probeAnswerBits), float64(p.probeRows))
	rep.layer["cbitmap.consume_ns_per_row"] = ratio(float64(sum(tr.durations("Result.ForEach"))), float64(p.probeRows))

	// Counters cover the whole ladder; timings the nominal rate, where the
	// end-to-end latencies are taken.
	var waits, services, lags []time.Duration
	var answered, attempted int
	for k, rung := range p.rungs {
		for _, o := range rung {
			attempted++
			if o.answered {
				answered++
			}
			if k != sz.nominal {
				continue
			}
			lags = append(lags, o.lag)
			if o.answered {
				waits = append(waits, o.wait)
				services = append(services, o.service)
			}
		}
	}
	waits, services, lags = sortedCopy(waits), sortedCopy(services), sortedCopy(lags)
	rep.layer["iomodel.cache_hit_rate"] = ratio(float64(p.dev.CacheHits), float64(p.dev.CacheHits+p.dev.CacheMisses))
	rep.layer["iomodel.block_reads_per_request"] = ratio(float64(p.dev.BlockReads), float64(answered))
	rep.layer["iomodel.shared_saved_frac"] = ratio(float64(p.st.SharedSaved), float64(p.st.Reads+p.st.SharedSaved))
	rep.layer["shard.batch_service_p50_us"] = us(pct(services, 0.5))
	rep.layer["shard.batch_service_p99_us"] = us(pct(services, 0.99))
	rep.layer["serve.queue_wait_p50_us"] = us(pct(waits, 0.5))
	rep.layer["serve.queue_wait_p99_us"] = us(pct(waits, 0.99))
	rep.layer["serve.batch_size_mean"] = ratio(float64(p.st.Admitted), float64(p.st.Batches))
	rep.layer["serve.shed_frac"] = ratio(float64(p.st.Shed+p.st.Expired), float64(attempted))
	rep.layer["serve.flush_frac.size"] = ratio(float64(p.st.FlushSize), float64(p.st.Batches))
	rep.layer["serve.flush_frac.overlap"] = ratio(float64(p.st.FlushOverlap), float64(p.st.Batches))
	rep.layer["serve.flush_frac.wait"] = ratio(float64(p.st.FlushWait), float64(p.st.Batches))
	rep.layer["serve.flush_frac.deadline"] = ratio(float64(p.st.FlushDeadline), float64(p.st.Batches))
	rep.layer["serve.queue_max"] = float64(p.st.QueueMax)
	rep.layer["serve.gen_lag_p99_us"] = us(pct(lags, 0.99))
	rep.layer["serve.max_qps"] = s.maxQPS(p)
	return finishTrace(c, tr, "serve", rep, p50, s.windowed(p.rungs[sz.nominal], p.rungDur[sz.nominal], 0.5))
}

// close stops the server and closes the file, if open.
func (s *serveState) close() error {
	var err error
	if s.srv != nil {
		err = s.srv.Close()
		s.srv = nil
	}
	if s.opened != nil {
		if cerr := s.opened.Close(); err == nil {
			err = cerr
		}
		s.opened = nil
	}
	return err
}

// A phase's time is split into a warm-up at the nominal rate, the ladder
// and the direct probes. The nominal rate runs longest, then the overload
// rate; the other rungs share what is left equally.
const warmShare, nominalShare, overloadShare, probeShare = 0.1, 0.5, 0.15, 0.1

func (s *serveState) rungShare(k int) float64 {
	switch k {
	case s.sz.nominal:
		return nominalShare
	case s.sz.overload:
		return overloadShare
	}
	return (1 - warmShare - nominalShare - overloadShare - probeShare) / float64(len(s.sz.ladder)-2)
}

// measure runs one phase: a discarded warm-up, the ladder, then the direct
// probes, with the server and device counters taken around the ladder.
func (s *serveState) measure(tr *tracer, d time.Duration) (ladderRun, error) {
	var r ladderRun
	sz := s.sz
	s.rung(nil, sz.ladder[sz.nominal], time.Duration(float64(d)*warmShare), -1)
	dev0, st0 := s.opened.Sharded.DeviceStats(), s.srv.Stats()
	for k, rate := range sz.ladder {
		rd := time.Duration(float64(d) * s.rungShare(k))
		r.rungs = append(r.rungs, s.rung(tr, rate, rd, k))
		r.rungDur = append(r.rungDur, rd)
	}
	dev1, st1 := s.opened.Sharded.DeviceStats(), s.srv.Stats()
	r.dev = secidx.DeviceStats{
		BlockReads: dev1.BlockReads - dev0.BlockReads,
		CacheHits:  dev1.CacheHits - dev0.CacheHits, CacheMisses: dev1.CacheMisses - dev0.CacheMisses,
	}
	r.st = secidx.ServerStats{
		Admitted: st1.Admitted - st0.Admitted, Shed: st1.Shed - st0.Shed, Expired: st1.Expired - st0.Expired,
		Batches: st1.Batches - st0.Batches, FlushSize: st1.FlushSize - st0.FlushSize,
		FlushOverlap: st1.FlushOverlap - st0.FlushOverlap, FlushWait: st1.FlushWait - st0.FlushWait,
		FlushDeadline: st1.FlushDeadline - st0.FlushDeadline, QueueMax: st1.QueueMax,
		Reads: st1.Reads - st0.Reads, SharedSaved: st1.SharedSaved - st0.SharedSaved,
	}
	s.probe(tr, &r, time.Duration(float64(d)*probeShare))
	// Compare a sample of served answers row by row with a column scan.
	checked := 0
	for _, o := range r.rungs[sz.nominal] {
		if o.res != nil && checked < sz.samples {
			checked++
			if !s.or.sameRows(o.res, o.r) {
				s.rep.wrong++
			}
		}
	}
	return r, nil
}

// rung offers Poisson arrivals at rate for d, waits for every answer and
// checks it. Rung -1 is the warm-up.
func (s *serveState) rung(tr *tracer, rate float64, d time.Duration, k int) []outcome {
	rng := newRand(s.c.seed, streamRung+k)
	arrivals := poissonArrivals(rng, rate, d, func() keyRange { return s.hot.draw(rng) })
	out := make([]outcome, len(arrivals))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arrivals {
		due := start.Add(a.at)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		s.req++
		wg.Add(1)
		go func(o *outcome, r keyRange, due time.Time, req int64, keep bool) {
			defer wg.Done()
			t0 := time.Now()
			sr, err := s.srv.Query(context.Background(), r.lo, r.hi)
			t1 := time.Now()
			o.r, o.at, o.lag, o.lat, o.err = r, due.Sub(start), t0.Sub(due), t1.Sub(due), err
			if tr != nil {
				root := tr.newID()
				tr.add("Server.Query", tr.newID(), root, req, t0, t1)
				tr.add("request", root, 0, req, due, t1)
			}
			if err != nil {
				return
			}
			o.answered = true
			o.wait, o.service = sr.Wait, sr.Service
			o.ok = sr.Result.Card() == s.or.card(r)
			if keep {
				o.res = sr.Result
			}
		}(&out[i], a.r, due, s.req, i < s.sz.samples)
	}
	wg.Wait()
	tally(s.rep, out, k <= s.sz.nominal)
	return out
}

// tally counts a rung's requests and errors. A request offered at or below
// the nominal rate counts in error_rate, and a shed or expired one is an
// error. Above it shedding is the server's job: those requests stay out of
// error_rate's denominator. A failed or wrong answer is an error on any rung.
func tally(rep *report, out []outcome, counted bool) {
	rep.attempted += int64(len(out))
	if !counted {
		rep.uncounted += int64(len(out))
	}
	for _, o := range out {
		switch {
		case o.err == nil && !o.ok:
			rep.wrong++
		case errors.Is(o.err, secidx.ErrOverloaded) || errors.Is(o.err, context.DeadlineExceeded):
			if counted {
				rep.refused++
			}
		case o.err != nil:
			rep.failed++
		}
	}
}

// probe runs whole passes of the direct ShardedIndex.Query probes outside
// the server for d, one closed-loop client consuming each answer with
// ForEach.
func (s *serveState) probe(tr *tracer, r *ladderRun, d time.Duration) {
	ix := s.opened.Sharded
	end := time.Now().Add(d)
	for pass := 0; pass == 0 || time.Now().Before(end); pass++ {
		r.probeLat = append(r.probeLat, nil)
		for _, q := range s.probes {
			s.probeOne(tr, r, ix, q, pass)
		}
	}
}

func (s *serveState) probeOne(tr *tracer, r *ladderRun, ix *secidx.ShardedIndex, q keyRange, pass int) {
	s.req++
	s.rep.attempted++
	s.rep.uncounted++ // a failure or wrong answer still counts
	t0 := time.Now()
	res, st, err := ix.Query(q.lo, q.hi)
	t1 := time.Now()
	if err != nil {
		s.rep.failed++
		return
	}
	var rows int64
	res.ForEach(func(int64) bool { rows++; return true })
	t2 := time.Now()
	tr.record(s.req, []time.Time{t0, t1, t2}, "ShardedIndex.Query", "Result.ForEach")
	if rows != s.or.card(q) {
		s.rep.wrong++
	}
	r.probeLat[pass] = append(r.probeLat[pass], t1.Sub(t0))
	r.probes++
	r.probeReads += int64(st.Reads)
	r.probeBits += st.BitsRead
	r.probeAnswerBits += int64(res.SizeBits())
	r.probeRows += rows
}

// missed stands in for the latency of a request that was refused, failed
// or answered wrongly: it misses every limit but noLimit.
const missed, noLimit = time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)

// latencies returns the rung's latencies from due time, sorted, with
// missed for every request not answered correctly; a percentile that lands
// on one reports cap instead.
func (s *serveState) latencies(rung []outcome, cap time.Duration) []time.Duration {
	out := make([]time.Duration, len(rung))
	for i, o := range rung {
		out[i] = missed
		if o.answered && o.ok {
			out[i] = o.lat
		}
	}
	out = sortedCopy(out)
	for i := range out {
		if out[i] == missed {
			out[i] = cap
		}
	}
	return out
}

// windowed splits the rung into windows by due time and returns the median
// over the windows of each one's p-quantile latency.
func (s *serveState) windowed(rung []outcome, d time.Duration, p float64) time.Duration {
	parts := make([][]outcome, windows)
	for _, o := range rung {
		w := windowOf(o.at, d)
		parts[w] = append(parts[w], o)
	}
	qs := make([]time.Duration, windows)
	for w, part := range parts {
		qs[w] = pct(s.latencies(part, d), p)
	}
	return medianDur(qs)
}

// rate is the rate of correct answers within limit: the median over the
// rung's windows, by due time, of the window's count per second.
func (s *serveState) rate(rung []outcome, d, limit time.Duration) float64 {
	good := make([]float64, windows)
	for _, o := range rung {
		if o.answered && o.ok && o.lat <= limit {
			good[windowOf(o.at, d)]++
		}
	}
	slices.Sort(good)
	return good[windows/2] / (d.Seconds() / windows)
}

// maxQPS is the highest offered rate whose p99 meets the limit,
// interpolated linearly between the last rung that meets it and the first
// that does not.
func (s *serveState) maxQPS(r ladderRun) float64 {
	lim := float64(s.sz.limit)
	prevRate, prevP99 := 0.0, 0.0
	for k, rung := range r.rungs {
		p99 := float64(pct(s.latencies(rung, 10*s.sz.limit), 0.99))
		rate := s.sz.ladder[k]
		if p99 > lim {
			return prevRate + (rate-prevRate)*(lim-prevP99)/(p99-prevP99)
		}
		prevRate, prevP99 = rate, p99
	}
	return prevRate
}
