package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	secidx "repro"
)

func smallConfig(t *testing.T, seed int64) config {
	return config{seed: seed, seconds: 0.4, trace: true, dir: t.TempDir()}
}

var scanSmall = scanSize{rows: 1 << 15, sigma: 1024, theta: 1.1, maxLen: 256,
	queries: 64, pool: 1024, samples: 4, supersets: 64, setups: 1, eps: 1.0 / 4}

// The counts a change may be judged on repeat exactly for a seed.
func TestScanCountsRepeat(t *testing.T) {
	deterministic := []string{"core.blocks_per_query", "core.read_bits_per_answer_bit",
		"cbitmap.answer_bits_per_row", "core.approx_fp_rate", "core.approx_candidate_ratio"}
	var first *report
	for range 2 {
		rep := newReport()
		if err := scanWith(smallConfig(t, 7), rep, scanSmall); err != nil {
			t.Fatal(err)
		}
		if rep.wrong != 0 || rep.failed != 0 {
			t.Fatalf("wrong=%d failed=%d", rep.wrong, rep.failed)
		}
		if first == nil {
			first = rep
			for _, k := range deterministic {
				if rep.layer[k] == 0 {
					t.Errorf("%s not measured", k)
				}
			}
			continue
		}
		for _, k := range deterministic {
			if rep.layer[k] != first.layer[k] {
				t.Errorf("%s: %v then %v", k, first.layer[k], rep.layer[k])
			}
		}
		if a, b := first.e2e["index_bits_per_row"], rep.e2e["index_bits_per_row"]; a != b {
			t.Errorf("index_bits_per_row: %v then %v", a, b)
		}
	}
}

func TestIngestChecksAndRepeats(t *testing.T) {
	sz := ingestSize{rows: 1 << 12, sigma: 128, theta: 1.1, rangeLen: 16, queries: 64, pool: 1024,
		checkpointOps: 16, maxAppends: 1 << 14, walProbe: 8, setups: 2, samples: 4}
	var bits []float64
	for range 2 {
		rep := newReport()
		if err := ingestWith(smallConfig(t, 3), rep, sz); err != nil {
			t.Fatal(err)
		}
		if rep.wrong != 0 || rep.failed != 0 {
			t.Fatalf("wrong=%d failed=%d", rep.wrong, rep.failed)
		}
		walBytes := 0.0
		for _, nv := range rep.named {
			if nv.name == "wal.bytes_per_op" {
				walBytes = nv.value
			}
		}
		if walBytes <= 0 || rep.e2e["op_per_s"] <= 0 {
			t.Fatalf("layer metrics not measured: %v", rep.named)
		}
		bits = append(bits, rep.e2e["index_bits_per_row"])
	}
	if bits[0] != bits[1] {
		t.Errorf("index_bits_per_row: %v", bits)
	}
}

func TestServeChecksAnswers(t *testing.T) {
	sz := serveSize{rows: 1 << 14, sigma: 256, theta: 1.1, shards: 2, cacheBlocks: 16,
		rangeLen: 16, posTheta: 1.1, probes: 32, setups: 1, ladder: []float64{200, 400},
		nominal: 0, overload: 1, limit: 50 * time.Millisecond, samples: 4}
	rep := newReport()
	if err := serveWith(smallConfig(t, 5), rep, sz); err != nil {
		t.Fatal(err)
	}
	if rep.wrong != 0 || rep.failed != 0 {
		t.Fatalf("wrong=%d failed=%d", rep.wrong, rep.failed)
	}
	for _, m := range endToEnd {
		if m.name == "peak_rss_mb" || m.name == "success_rate" {
			continue // set by realMain
		}
		if rep.e2e[m.name] <= 0 {
			t.Errorf("%s = %v", m.name, rep.e2e[m.name])
		}
	}
}

// Sheds and expiries at the nominal rate lower success_rate in proportion
// to the requests offered at that rate, however many were offered above it.
func TestServeNominalShedsCount(t *testing.T) {
	ok := outcome{answered: true, ok: true}
	shed := outcome{err: secidx.ErrOverloaded}
	expired := outcome{err: context.DeadlineExceeded}
	nominal := slices.Concat(slices.Repeat([]outcome{ok}, 95), slices.Repeat([]outcome{shed}, 3),
		slices.Repeat([]outcome{expired}, 2))
	overload := slices.Concat(slices.Repeat([]outcome{ok}, 9000), slices.Repeat([]outcome{shed}, 1000))
	rep := newReport()
	tally(rep, nominal, true)
	tally(rep, overload, false)
	if got := 1 - rep.errorRate(); math.Abs(got-0.95) > 1e-12 {
		t.Errorf("success_rate = %v, want 0.95", got)
	}
	if rep.attempted != 10100 || rep.refused != 5 {
		t.Errorf("attempted = %d, refused = %d", rep.attempted, rep.refused)
	}
	tally(rep, []outcome{{answered: true}}, false) // a wrong answer counts on any rung
	if rep.wrong != 1 {
		t.Errorf("wrong = %d", rep.wrong)
	}
}

func TestOracle(t *testing.T) {
	col := []uint32{3, 0, 2, 3, 1, 3}
	o := newOracle(col, 4)
	for lo := uint32(0); lo < 4; lo++ {
		for hi := lo; hi < 4; hi++ {
			r := keyRange{lo, hi}
			if got, want := o.card(r), int64(len(o.rows(r))); got != want {
				t.Errorf("card(%v) = %d, scan finds %d", r, got, want)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ns int64) time.Time { return t0.Add(time.Duration(ns)) }
	tr := &tracer{}
	root := tr.newID()
	tr.add("a", tr.newID(), root, 1, at(1), at(3))
	tr.add("b", tr.newID(), root, 1, at(2), at(5))
	tr.add("c", tr.newID(), root, 1, at(7), at(8))
	tr.add("request", root, 0, 1, at(0), at(10))
	tr.finish()
	for _, s := range tr.spans {
		want := map[string]int64{"a": 2, "b": 3, "c": 1, "request": 5}[s.name]
		if s.selfNs != want {
			t.Errorf("%s self = %d, want %d", s.name, s.selfNs, want)
		}
	}
}

func TestStratifiedSample(t *testing.T) {
	col := zipfColumn(1<<12, 64, 1.1, 1)
	o := newOracle(col, 64)
	draw := func(seed int64) []keyRange {
		rng := newRand(seed, streamRanges)
		return stratified(rng, 32, 512, func() keyRange {
			lo := rng.Intn(60)
			return keyRange{uint32(lo), uint32(lo + 4)}
		}, o.card)
	}
	a, b := draw(1), draw(1)
	if !slices.Equal(a, b) {
		t.Fatal("same seed, different ranges")
	}
	if slices.Equal(a, draw(2)) {
		t.Fatal("different seeds, same ranges")
	}
}

func TestHotRangesRankZeroIsMedian(t *testing.T) {
	col := zipfColumn(1<<12, 64, 1.1, 1)
	o := newOracle(col, 64)
	h := hotRanges(newRand(1, streamArrivals), 64, 4, 1.1, o.card)
	var cards []int64
	for _, r := range h.ranked {
		cards = append(cards, o.card(r))
	}
	sorted := slices.Clone(cards)
	slices.Sort(sorted)
	if cards[0] != sorted[len(sorted)/2] {
		t.Errorf("rank 0 card %d, median %d", cards[0], sorted[len(sorted)/2])
	}
	seen := map[keyRange]bool{}
	for _, r := range h.ranked {
		if seen[r] {
			t.Fatalf("range %v ranked twice", r)
		}
		seen[r] = true
	}
}

// BENCHMARK.json names exactly the metrics the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, program %s %s", kind, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
}
