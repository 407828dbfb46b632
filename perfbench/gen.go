package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// The generators live here rather than in repro/internal/workload so that a
// change to the library's own generators cannot silently change the
// benchmark's inputs. They mirror workload.Zipf and workload.PoissonArrivals.

// Sub-streams of one --seed: each input is drawn from its own generator so
// that, for example, changing the number of ranges does not change the
// column.
const (
	streamColumn = iota + 1
	streamRanges
	streamSample
	streamArrivals
	streamReads
	streamRung = 16 // + rung index, from -1
)

func newRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// zipfSampler draws ranks 0..k-1 with P(r) ∝ 1/(r+1)^theta and maps them
// through a seeded permutation, so skew is not correlated with key order.
type zipfSampler struct {
	cdf  []float64
	perm []int
}

func newZipf(rng *rand.Rand, k int, theta float64) *zipfSampler {
	cdf := make([]float64, k)
	var sum float64
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), theta)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return &zipfSampler{cdf: cdf, perm: rng.Perm(k)}
}

// rankDraw returns a rank, 0 the most likely.
func (z *zipfSampler) rankDraw(rng *rand.Rand) int {
	r := sort.SearchFloat64s(z.cdf, rng.Float64())
	return min(r, len(z.cdf)-1)
}

// draw returns the value the rank is permuted to.
func (z *zipfSampler) draw(rng *rand.Rand) int { return z.perm[z.rankDraw(rng)] }

// zipfColumn draws n keys in [0,sigma) from Zipf(theta).
func zipfColumn(n, sigma int, theta float64, seed int64) []uint32 {
	rng := newRand(seed, streamColumn)
	z := newZipf(rng, sigma, theta)
	col := make([]uint32, n)
	for i := range col {
		col[i] = uint32(z.draw(rng))
	}
	return col
}

// keyRange is one alphabet range query [lo,hi].
type keyRange struct{ lo, hi uint32 }

// logUniformRange draws a range whose length is log-uniform in [1,maxLen]
// and whose position is uniform over [0,sigma).
func logUniformRange(rng *rand.Rand, sigma, maxLen int) keyRange {
	l := int(math.Exp(rng.Float64() * math.Log(float64(maxLen)+1)))
	l = min(max(l, 1), maxLen, sigma)
	lo := rng.Intn(sigma - l + 1)
	return keyRange{uint32(lo), uint32(lo + l - 1)}
}

// arrival is one open-loop request: due at offset at from the start of its
// rung.
type arrival struct {
	at time.Duration
	r  keyRange
}

// poissonArrivals returns the arrivals of a Poisson process of the given
// rate over d, with ranges from draw.
func poissonArrivals(rng *rand.Rand, rate float64, d time.Duration, draw func() keyRange) []arrival {
	var out []arrival
	now := 0.0
	for {
		now += rng.ExpFloat64() / rate
		at := time.Duration(now * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, arrival{at: at, r: draw()})
	}
}

// stratified returns q ranges drawn from draw as a systematic sample, in
// order of answer size, of a pool of poolSize draws, in shuffled order. The
// sample follows draw's distribution, but each run gets nearly the same mix
// of small and large answers, so run-to-run spread reflects the program and
// the host rather than which heavy ranges a seed happened to draw.
func stratified(rng *rand.Rand, q, poolSize int, draw func() keyRange, card func(keyRange) int64) []keyRange {
	pool := make([]keyRange, poolSize)
	cards := make([]int64, poolSize)
	for i := range pool {
		pool[i] = draw()
		cards[i] = card(pool[i])
	}
	idx := make([]int, poolSize)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return cards[idx[a]] < cards[idx[b]] })
	off := rng.Float64()
	out := make([]keyRange, q)
	for i := range out {
		out[i] = pool[idx[int((float64(i)+off)*float64(poolSize)/float64(q))]]
	}
	rng.Shuffle(q, func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// hotRanges maps Zipf ranks onto the length-l ranges so that rank r gets the
// range at answer-size quantile frac(vdc(r)+1/2), where vdc is the base-2
// van der Corput sequence. Requests stay Zipf(theta)-skewed over positions,
// but the hottest ranges cover the answer-size distribution evenly instead
// of by luck: rank 0 is a median-size range on every seed.
func hotRanges(rng *rand.Rand, sigma, l int, theta float64, card func(keyRange) int64) *hotSet {
	n := sigma - l + 1
	byCard := make([]keyRange, n)
	for i := range byCard {
		byCard[i] = keyRange{uint32(i), uint32(i + l - 1)}
	}
	rng.Shuffle(n, func(a, b int) { byCard[a], byCard[b] = byCard[b], byCard[a] })
	sort.SliceStable(byCard, func(a, b int) bool { return card(byCard[a]) < card(byCard[b]) })
	used := make([]bool, n)
	ranked := make([]keyRange, n)
	for r := range ranked {
		x := vdc(uint32(r)) + 0.5
		if x >= 1 {
			x--
		}
		i := int(x * float64(n))
		for used[i] {
			i = (i + 1) % n
		}
		used[i] = true
		ranked[r] = byCard[i]
	}
	return &hotSet{ranked: ranked, z: newZipf(rng, n, theta)}
}

// hotSet draws ranges by Zipf rank.
type hotSet struct {
	ranked []keyRange
	z      *zipfSampler
}

func (h *hotSet) draw(rng *rand.Rand) keyRange { return h.ranked[h.z.rankDraw(rng)] }

// vdc is the base-2 radical inverse of r: its bits mirrored about the
// binary point.
func vdc(r uint32) float64 {
	var x float64
	for f := 0.5; r > 0; r, f = r>>1, f/2 {
		if r&1 == 1 {
			x += f
		}
	}
	return x
}
