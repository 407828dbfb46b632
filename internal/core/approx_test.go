package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

func TestApproxNoFalseNegatives(t *testing.T) {
	col := workload.Uniform(1<<14, 256, 1)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
	ax, err := BuildApprox(d, col, ApproxOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range workload.RandomRanges(10, 256, 4, 2) {
		res, _, err := ax.ApproxQuery(index.Range{Lo: q.Lo, Hi: q.Hi}, 1.0/64)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range workload.BruteForce(col, q) {
			if !res.Contains(p) {
				t.Fatalf("[%d,%d]: false negative at %d", q.Lo, q.Hi, p)
			}
		}
	}
}

func TestApproxFalsePositiveRate(t *testing.T) {
	col := workload.Uniform(1<<14, 256, 3)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
	ax, err := BuildApprox(d, col, ApproxOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	eps := 1.0 / 128
	var fp, nonMembers int64
	for _, q := range workload.RandomRanges(5, 256, 2, 4) {
		res, _, err := ax.ApproxQuery(index.Range{Lo: q.Lo, Hi: q.Hi}, eps)
		if err != nil {
			t.Fatal(err)
		}
		if res.IsExact() {
			continue // small z can force exactness; no FPs there
		}
		truth := map[int64]bool{}
		for _, p := range workload.BruteForce(col, q) {
			truth[p] = true
		}
		member := res.memberFn()
		for i := int64(0); i < int64(col.Len()); i++ {
			if truth[i] {
				continue
			}
			nonMembers++
			if member(i) {
				fp++
			}
		}
	}
	if nonMembers == 0 {
		t.Skip("all queries fell back to exact")
	}
	rate := float64(fp) / float64(nonMembers)
	// Multiply-shift is 2-approximately universal; allow 4x + noise.
	if rate > 6*eps {
		t.Fatalf("false positive rate %v >> eps %v", rate, eps)
	}
}

func TestApproxReadsFewerBitsThanExact(t *testing.T) {
	// Theorem 3: O(z lg 1/eps) vs O(z lg(n/z)) bits. The saving appears
	// when an intermediate hashed level fits, i.e. z/eps <= 2^(2^j) with
	// 2^(2^j) well below n: here z ~ n*2/sigma = 32, eps = 1/4 gives
	// z/eps = 128 < 256 = 2^(2^3), against an exact cost of z*lg(n/z) ~
	// z*10 bits.
	col := workload.Uniform(1<<15, 2048, 5)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
	ax, err := BuildApprox(d, col, ApproxOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r := index.Range{Lo: 8, Hi: 9} // z ~ 32
	exact, exactStats, err := ax.Query(r)
	if err != nil {
		t.Fatal(err)
	}
	res, approxStats, err := ax.ApproxQuery(r, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if res.IsExact() {
		t.Fatal("expected a hashed result for large z and eps=0.25")
	}
	if approxStats.BitsRead >= exactStats.BitsRead {
		t.Fatalf("approx read %d bits, exact %d", approxStats.BitsRead, exactStats.BitsRead)
	}
	// And it must still contain all true members.
	it := exact.Iter()
	for p, ok := it.Next(); ok; p, ok = it.Next() {
		if !res.Contains(p) {
			t.Fatalf("false negative at %d", p)
		}
	}
}

func TestApproxTinyEpsFallsBackToExact(t *testing.T) {
	col := workload.Uniform(1<<12, 64, 6)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	ax, err := BuildApprox(d, col, ApproxOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := ax.ApproxQuery(index.Range{Lo: 0, Hi: 31}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsExact() {
		t.Fatal("eps=1e-9 should force the exact path")
	}
	want := workload.BruteForce(col, workload.RangeQuery{Lo: 0, Hi: 31})
	if res.Exact.Card() != int64(len(want)) {
		t.Fatalf("exact fallback wrong: %d vs %d", res.Exact.Card(), len(want))
	}
}

func TestApproxCandidates(t *testing.T) {
	col := workload.Uniform(1<<12, 256, 8)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	ax, err := BuildApprox(d, col, ApproxOptions{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	q := workload.RangeQuery{Lo: 10, Hi: 12}
	res, _, err := ax.ApproxQuery(index.Range{Lo: q.Lo, Hi: q.Hi}, 0.125)
	if err != nil {
		t.Fatal(err)
	}
	cand, err := res.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	if cand.Card() != res.CandidateCount() {
		t.Fatalf("CandidateCount %d != materialised %d", res.CandidateCount(), cand.Card())
	}
	truth := workload.BruteForce(col, q)
	for _, p := range truth {
		if !cand.Contains(p) {
			t.Fatalf("candidate set misses true member %d", p)
		}
	}
	// Superset size must be bounded: z + ~eps*n (slack 6x).
	zn := float64(len(truth)) + 6*0.125*float64(col.Len())
	if float64(cand.Card()) > zn {
		t.Fatalf("candidate count %d above bound %f", cand.Card(), zn)
	}
}

func TestIntersectSameJ(t *testing.T) {
	// Two columns over the same rows, same hash seed: intersection of
	// results has no false negatives for rows matching both.
	n := 1 << 13
	colA := workload.Uniform(n, 64, 20)
	colB := workload.Uniform(n, 64, 21)
	dA := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
	dB := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
	axA, err := BuildApprox(dA, colA, ApproxOptions{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	axB, err := BuildApprox(dB, colB, ApproxOptions{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	qA := workload.RangeQuery{Lo: 0, Hi: 15}
	qB := workload.RangeQuery{Lo: 16, Hi: 31}
	resA, _, err := axA.ApproxQuery(index.Range{Lo: qA.Lo, Hi: qA.Hi}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	resB, _, err := axB.ApproxQuery(index.Range{Lo: qB.Lo, Hi: qB.Hi}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	both, err := Intersect(resA, resB)
	if err != nil {
		t.Fatal(err)
	}
	truthA := map[int64]bool{}
	for _, p := range workload.BruteForce(colA, qA) {
		truthA[p] = true
	}
	var inBoth int64
	for _, p := range workload.BruteForce(colB, qB) {
		if truthA[p] {
			inBoth++
			if !both.Contains(p) {
				t.Fatalf("intersection misses true member %d", p)
			}
		}
	}
	// FPR of the intersection should be ~eps^2 per element: candidate count
	// near the truth.
	if cc := both.CandidateCount(); float64(cc) > float64(inBoth)+6*0.25*0.25*float64(n)+16 {
		t.Fatalf("intersection candidates %d, true %d", cc, inBoth)
	}
}

func TestIntersectMixedExactAndApprox(t *testing.T) {
	n := 1 << 12
	colA := workload.Uniform(n, 32, 30)
	colB := workload.Uniform(n, 32, 31)
	dA := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	dB := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	axA, err := BuildApprox(dA, colA, ApproxOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	axB, err := BuildApprox(dB, colB, ApproxOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	exactRes, _, err := axA.ApproxQuery(index.Range{Lo: 0, Hi: 7}, 1e-9) // exact
	if err != nil {
		t.Fatal(err)
	}
	hashRes, _, err := axB.ApproxQuery(index.Range{Lo: 0, Hi: 15}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if exactRes.IsExact() == hashRes.IsExact() {
		t.Skip("expected one exact and one hashed result")
	}
	both, err := Intersect(exactRes, hashRes)
	if err != nil {
		t.Fatal(err)
	}
	truthB := map[int64]bool{}
	for _, p := range workload.BruteForce(colB, workload.RangeQuery{Lo: 0, Hi: 15}) {
		truthB[p] = true
	}
	for _, p := range workload.BruteForce(colA, workload.RangeQuery{Lo: 0, Hi: 7}) {
		if truthB[p] && !both.Contains(p) {
			t.Fatalf("mixed intersection misses %d", p)
		}
	}
}

func TestIntersectErrors(t *testing.T) {
	if _, err := Intersect(); err == nil {
		t.Fatal("empty intersect accepted")
	}
	a := &Result{N: 10}
	b := &Result{N: 20}
	if _, err := Intersect(a, b); err == nil {
		t.Fatal("universe mismatch accepted")
	}
}

func TestApproxInvalidEps(t *testing.T) {
	col := workload.Uniform(256, 8, 40)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
	ax, err := BuildApprox(d, col, ApproxOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0, 1, -0.5, 2} {
		if _, _, err := ax.ApproxQuery(index.Range{Lo: 0, Hi: 3}, eps); err == nil {
			t.Fatalf("eps=%v accepted", eps)
		}
	}
}

func TestMaxJ(t *testing.T) {
	// Least k with 2^(2^k) >= n: n=2^20 -> lg n = 20 -> 2^k >= 20 -> k=5.
	if k := maxJ(1 << 20); k != 5 {
		t.Fatalf("maxJ(2^20) = %d, want 5", k)
	}
	// n=2^15 -> lg n = 15 -> k=4.
	if k := maxJ(1 << 15); k != 4 {
		t.Fatalf("maxJ(2^15) = %d, want 4", k)
	}
	if k := maxJ(16); k < 1 {
		t.Fatalf("maxJ(16) = %d", k)
	}
}

// TestRadixSort checks the hashed-set build's radix sort against
// slices.Sort on empty, tiny, duplicate-heavy and full-width inputs,
// reusing the spare buffer across calls as the build does.
func TestRadixSort(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var tmp []int64
	for _, tc := range []struct {
		n    int
		bits uint
	}{{0, 8}, {1, 32}, {2, 1}, {3, 32}, {100, 4}, {1000, 17}, {5000, 32}, {5000, 63}} {
		a := make([]int64, tc.n)
		for i := range a {
			a[i] = rng.Int63() >> (63 - tc.bits)
		}
		want := slices.Clone(a)
		slices.Sort(want)
		var got []int64
		got, tmp = radixSort(a, tmp)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d bits=%d: radixSort differs from slices.Sort", tc.n, tc.bits)
		}
	}
}
