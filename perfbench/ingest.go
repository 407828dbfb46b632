package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	secidx "repro"
)

// ingestSize fixes the ingest workload's inputs.
type ingestSize struct {
	rows, sigma   int
	theta         float64
	rangeLen      int // ℓ of every reader query
	queries, pool int // reader ranges, a stratified sample of pool draws
	checkpointOps int // WALOptions.CheckpointOps
	maxAppends    int // keys generated for the writer
	walProbe      int // appends measured for wal.bytes_per_op
	setups        int
	samples       int // final answers compared row by row with a column scan
}

var ingestFull = ingestSize{rows: 1 << 18, sigma: 1024, theta: 1.1, rangeLen: 16,
	queries: 1024, pool: 65536, checkpointOps: 256, maxAppends: 1 << 20,
	walProbe: 64, setups: 5, samples: 8}

// runIngest puts writes beside reads on a durable, concurrent append index
// reopened from its file: one closed-loop writer calls Append under
// SyncEveryOp while one closed-loop reader takes a Snapshot, queries it and
// releases it. The log, the durable layer, epoch publication and the
// copy-on-write device do the work; shards, the server and big answers are
// absent.
func runIngest(c config, rep *report) error { return ingestWith(c, rep, ingestFull) }

type ingestState struct {
	sz     ingestSize
	base   *oracle
	keys   []uint32  // the writer appends keys[0], keys[1], ...
	byKey  [][]int32 // byKey[k] lists the indexes i with keys[i] == k
	ranges []keyRange
	opened *secidx.Opened
	rep    *report
	next   int          // keys appended so far (writer-owned)
	acked  atomic.Int64 // keys acknowledged, for the reader
	req    atomic.Int64
}

// ingestRun is one phase's measurements.
type ingestRun struct {
	appendLat, readLat   [][]time.Duration // per window
	appends              int
	elapsed              time.Duration
	lag                  int64 // Σ (acknowledged − snapshot version)
	reads, bitsRead      int64
	answerBits, readRows int64
}

func ingestWith(c config, rep *report, sz ingestSize) error {
	// The appended keys continue the column: same law, same hot keys.
	drawn := zipfColumn(sz.rows+sz.maxAppends, sz.sigma, sz.theta, c.seed)
	col, keys := drawn[:sz.rows:sz.rows], drawn[sz.rows:]
	base := newOracle(col, sz.sigma)
	byKey := make([][]int32, sz.sigma)
	for i, k := range keys {
		byKey[k] = append(byKey[k], int32(i))
	}
	rrng := newRand(c.seed, streamReads)
	ranges := stratified(rrng, sz.queries, sz.pool, func() keyRange {
		lo := rrng.Intn(sz.sigma - sz.rangeLen + 1)
		return keyRange{uint32(lo), uint32(lo + sz.rangeLen - 1)}
	}, base.card)
	rep.setting("ingest: rows=%d sigma=%d zipf_theta=%g, appended keys continue the column; reader range_len=%d (%d ranges, stratified from %d)",
		sz.rows, sz.sigma, sz.theta, sz.rangeLen, sz.queries, sz.pool)
	rep.setting("ingest: closed loop, 1 writer (Append) beside 1 reader (Snapshot+Query+ForEach+Release); WAL sync policy SyncEveryOp, CheckpointOps=%d, Concurrent", sz.checkpointOps)

	var tr *tracer
	if c.trace {
		tr = &tracer{}
	}
	s := &ingestState{sz: sz, base: base, keys: keys, byKey: byKey, ranges: ranges, rep: rep}
	dir := filepath.Join(c.dir, "ingest")
	path := filepath.Join(dir, "ingest.sidx")
	defer func() {
		if s.opened != nil {
			s.opened.Close()
		}
		os.RemoveAll(dir)
	}()
	var setups []time.Duration
	for i := range sz.setups {
		if s.opened != nil {
			if err := s.opened.Close(); err != nil {
				return fmt.Errorf("close: %w", err)
			}
			s.opened = nil
		}
		os.RemoveAll(dir)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		ax, err := secidx.BuildAppend(col, sz.sigma, secidx.Options{})
		if err != nil {
			return fmt.Errorf("build: %w", err)
		}
		t1 := time.Now()
		if err := ax.WriteFile(path); err != nil {
			return fmt.Errorf("write: %w", err)
		}
		t2 := time.Now()
		op, err := secidx.OpenFile(path, secidx.OpenOptions{
			WAL:        &secidx.WALOptions{Policy: secidx.SyncEveryOp, CheckpointOps: sz.checkpointOps},
			Concurrent: true,
		})
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		t3 := time.Now()
		s.opened = op
		tr.record(int64(-1-i), []time.Time{t0, t1, t2, t3}, "BuildAppend", "AppendIndex.WriteFile", "OpenFile")
		setups = append(setups, t3.Sub(t0))
	}
	ap := s.opened.Append
	rep.metric("setup_s", "setup_s", "s", medianDur(setups).Seconds())
	rep.metric("index_bits_per_row", "index_bits_per_row", "bits", float64(ap.SizeBits())/float64(ap.Len()))

	untraced, traced, err := phases(c, tr, s.measure)
	if err != nil {
		return err
	}

	// A final checkpoint, then a few appends to measure log growth.
	t0 := time.Now()
	if err := s.opened.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	checkpoint := time.Since(t0)
	wal0, err := os.Stat(path + ".wal")
	if err != nil {
		return err
	}
	for range sz.walProbe {
		if s.next == len(keys) {
			break
		}
		rep.attempted++
		if _, err := ap.Append(keys[s.next]); err != nil {
			return fmt.Errorf("append: %w", err)
		}
		s.next++
	}
	wal1, err := os.Stat(path + ".wal")
	if err != nil {
		return err
	}
	if err := s.checkFinal(col); err != nil {
		return err
	}

	p50 := windowedPct(untraced.appendLat, 0.5)
	rep.metric("op_p50_us", "append_p50_us", "us", us(p50))
	rep.metric("op_p90_us", "append_p90_us", "us", us(windowedPct(untraced.appendLat, 0.9)))
	rep.also("append_p99_us", "us", us(windowedPct(untraced.appendLat, 0.99)))
	rep.metric("op_per_s", "append_ops_per_s", "ops/s", float64(untraced.appends)/untraced.elapsed.Seconds())
	rep.metric("aux_us", "snapshot_query_p90_us", "us", us(windowedPct(untraced.readLat, 0.9)))
	rep.also("snapshot_query_p99_us", "us", us(windowedPct(untraced.readLat, 0.99)))
	rep.setting("ingest: %d appends and %d snapshot queries in the untraced run, latency percentiles are medians over %d windows; %d keys appended in all",
		untraced.appends, len(all(untraced.readLat)), windows, s.next)
	if !c.trace {
		return nil
	}

	p := traced
	rep.layer["core.build_s"] = medianDur(tr.durations("BuildAppend")).Seconds()
	rep.layer["container.write_s"] = medianDur(tr.durations("AppendIndex.WriteFile")).Seconds()
	rep.layer["container.open_s"] = medianDur(tr.durations("OpenFile")).Seconds()
	// The layers only ingest reaches are printed, not in the JSON result:
	// ingest is not among BENCHMARK.json's workloads (see README.md).
	rep.also("container.checkpoint_ms", "ms", float64(checkpoint.Nanoseconds())/1e6)
	rep.also("wal.bytes_per_op", "bytes", float64(wal1.Size()-wal0.Size())/float64(sz.walProbe))
	rep.also("durable.append_call_us", "us", us(pct(tr.durations("AppendIndex.Append"), 0.5)))
	rep.also("epoch.snapshot_us", "us", us(pct(tr.durations("AppendIndex.Snapshot"), 0.5))+
		us(pct(tr.durations("Snapshot.Release"), 0.5)))
	reads := float64(len(all(p.readLat)))
	rep.also("epoch.version_lag_ops", "count", ratio(float64(p.lag), reads))
	calls := tr.durations("Snapshot.Query")
	rep.layer["core.query_call_p50_us"] = us(pct(calls, 0.5))
	rep.layer["core.query_call_p99_us"] = us(pct(calls, 0.99))
	rep.layer["core.blocks_per_query"] = ratio(float64(p.reads), reads)
	rep.layer["core.read_bits_per_answer_bit"] = ratio(float64(p.bitsRead), float64(p.answerBits))
	rep.layer["cbitmap.answer_bits_per_row"] = ratio(float64(p.answerBits), float64(p.readRows))
	rep.layer["cbitmap.consume_ns_per_row"] = ratio(float64(sum(tr.durations("Result.ForEach"))), float64(p.readRows))
	return finishTrace(c, tr, "ingest", rep, p50, windowedPct(p.appendLat, 0.5))
}

// card is the expected answer size of r after the first v appends.
func (s *ingestState) card(r keyRange, v int) int64 {
	n := s.base.card(r)
	for k := r.lo; k <= r.hi; k++ {
		n += int64(sort.Search(len(s.byKey[k]), func(j int) bool { return int(s.byKey[k][j]) >= v }))
	}
	return n
}

// measure runs the writer and the reader side by side for d.
func (s *ingestState) measure(tr *tracer, d time.Duration) (ingestRun, error) {
	r := ingestRun{appendLat: make([][]time.Duration, windows), readLat: make([][]time.Duration, windows)}
	ap := s.opened.Append
	start := time.Now()
	end := start.Add(d)
	window := func(t time.Time) int { return windowOf(t.Sub(start), d) }
	var wg sync.WaitGroup
	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(end) && s.next < len(s.keys) {
			req := s.req.Add(1)
			t0 := time.Now()
			_, err := ap.Append(s.keys[s.next])
			t1 := time.Now()
			if err != nil {
				werr = fmt.Errorf("append: %w", err)
				return
			}
			s.next++
			s.acked.Store(int64(s.next))
			tr.record(req, []time.Time{t0, t1}, "AppendIndex.Append")
			w := window(t0)
			r.appendLat[w] = append(r.appendLat[w], t1.Sub(t0))
			r.appends++
		}
	}()
	var wrong, failed int64
	for i := 0; time.Now().Before(end); i++ {
		q := s.ranges[i%len(s.ranges)]
		req := s.req.Add(1)
		t0 := time.Now()
		snap, err := ap.Snapshot()
		t1 := time.Now()
		if err != nil {
			failed++
			continue
		}
		acked := s.acked.Load()
		res, st, err := snap.Query(q.lo, q.hi)
		t2 := time.Now()
		var rows int64
		if err == nil {
			res.ForEach(func(int64) bool { rows++; return true })
		}
		t3 := time.Now()
		snap.Release()
		t4 := time.Now()
		if err != nil {
			failed++
			continue
		}
		tr.record(req, []time.Time{t0, t1, t2, t3, t4}, "AppendIndex.Snapshot", "Snapshot.Query", "Result.ForEach", "Snapshot.Release")
		v := int(snap.Version())
		w := window(t0)
		r.readLat[w] = append(r.readLat[w], t4.Sub(t0))
		r.lag += max(acked-int64(v), 0)
		r.reads += int64(st.Reads)
		r.bitsRead += st.BitsRead
		r.answerBits += int64(res.SizeBits())
		r.readRows += rows
		if want := s.card(q, v); rows != want || res.Card() != want {
			wrong++
		}
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	s.rep.attempted += int64(r.appends+len(all(r.readLat))) + failed
	s.rep.wrong += wrong
	s.rep.failed += failed
	if werr != nil {
		s.rep.failed++
	}
	return r, werr
}

// checkFinal checks the index after the run against the base column plus
// every appended key: every reader range by size, a sample row by row.
func (s *ingestState) checkFinal(col []uint32) error {
	final := newOracle(append(append([]uint32(nil), col...), s.keys[:s.next]...), s.sz.sigma)
	ap := s.opened.Append
	for i, q := range s.ranges {
		s.rep.attempted++
		res, _, err := ap.Query(q.lo, q.hi)
		if err != nil {
			return fmt.Errorf("final query: %w", err)
		}
		if res.Card() != final.card(q) || (i < s.sz.samples && !final.sameRows(res, q)) {
			s.rep.wrong++
		}
	}
	return nil
}
