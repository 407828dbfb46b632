package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/cbitmap"
	"repro/internal/hashutil"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// ApproxOptions configures the Theorem 3 structure.
type ApproxOptions struct {
	OptimalOptions
	// Seed determines the shared hash functions h_1 … h_k. Indexes built
	// with the same Seed over the same n share functions, which is what
	// makes intersection of approximate results across dimensions work
	// ("simply compute the preimage of the intersection", §3).
	Seed int64
}

// Approx is the paper's Theorem 3 structure: the Theorem 2 index extended,
// at every materialised member, with the hashed sets h_j(S) for
// j = 1 … k = ⌊lg lg n⌋, where h_j maps [n] to [2^(2^j)] via the split-XOR
// universal family. An approximate query reads O(z lg(1/ε)/B) bits instead
// of O(z lg(n/z)/B).
type Approx struct {
	*Optimal
	seed  int64
	k     int
	hs    []hashutil.SplitXOR // hs[j-1] has output width 2^j bits
	hmaps []hashLevel         // parallel to Optimal.levels
}

// hashLevel holds, for one materialised level, the per-j concatenated
// hashed-set extents, parallel to the level's member slice.
type hashLevel struct {
	perJ []hashArray // index j-1
}

type hashArray struct {
	exts  []iomodel.Extent
	cards []int64
}

// BuildApprox constructs the Theorem 3 index for col on disk d.
func BuildApprox(d iomodel.Device, col workload.Column, opts ApproxOptions) (*Approx, error) {
	ox, err := BuildOptimal(d, col, opts.OptimalOptions)
	if err != nil {
		return nil, err
	}
	ax := &Approx{Optimal: ox, seed: opts.Seed}
	n := ox.tree.n
	ax.k = maxJ(n)
	rng := rand.New(rand.NewSource(opts.Seed))
	for j := 1; j <= ax.k; j++ {
		ax.hs = append(ax.hs, hashutil.NewSplitXOR(rng, 1<<uint(j)))
	}
	// For each materialised member, store h_j(S) for every j, grouped by j
	// ("we group the sets according to what hash function was used") so a
	// cover chunk at one j is contiguous. Every hashed set streams from the
	// tree's position lists through one reused encoder and pooled writer
	// straight into its extent; TestStreamingBuildBitIdentical pins the bytes
	// against a per-member FromUnsorted oracle.
	lw := getChainWriter()
	defer putChainWriter(lw)
	var hb hashedSetBuilder
	for _, lv := range ox.levels {
		hl := hashLevel{perJ: make([]hashArray, ax.k)}
		for j := 1; j <= ax.k; j++ {
			arr := &hl.perJ[j-1]
			arr.exts = make([]iomodel.Extent, 0, len(lv.members))
			arr.cards = make([]int64, 0, len(lv.members))
			var enc cbitmap.StreamEncoder
			for _, m := range lv.members {
				lw.Reset()
				enc.Init(lw)
				hb.encode(&enc, ox.tree, ax.hs[j-1], m.start, m.end)
				arr.exts = append(arr.exts, d.AllocStream(lw))
				arr.cards = append(arr.cards, enc.Card())
			}
		}
		ax.hmaps = append(ax.hmaps, hl)
	}
	d.ResetStats()
	return ax, nil
}

// bitsetMaxLowBits is the widest hash output whose hashed sets are built in
// a word bitset: 2^16 bits is 8 KiB of scratch, and every j ≤ 4 qualifies.
const bitsetMaxLowBits = 16

// hashedSetBuilder holds the scratch the hashed-set build reuses across
// members: the member's per-character position slices, a word bitset for
// the small universes and key buffers for the wide one.
type hashedSetBuilder struct {
	lists     [][]int64
	bitset    []uint64
	keys, tmp []int64
}

// encode writes h(S) for the member S covering records [start,end) into
// enc, in increasing order without duplicates. The positions are hashed
// straight off the tree's per-character lists: their order is irrelevant
// before hashing, so nothing is copied or sorted up front. A universe of at
// most 2^16 is marked in a bitset whose set bits are emitted in order, runs
// of adjacent bits as runs; the wide universe (2^32 for j = k, where h_j is
// a bijection of [0,n) whenever n ≤ 2^32) collects the keys and radix-sorts
// them.
func (hb *hashedSetBuilder) encode(enc *cbitmap.StreamEncoder, tr *Tree, h hashutil.SplitXOR, start, end int64) {
	hb.lists = tr.PositionSlices(hb.lists[:0], start, end)
	if h.LowBits <= bitsetMaxLowBits {
		if hb.bitset == nil {
			hb.bitset = make([]uint64, 1<<bitsetMaxLowBits/64)
		}
		bs := hb.bitset[:(1<<h.LowBits+63)/64]
		for _, l := range hb.lists {
			for _, p := range l {
				v := h.Hash(uint64(p))
				bs[v>>6] |= 1 << (v & 63)
			}
		}
		for wi, w := range bs {
			base := int64(wi) << 6
			for w != 0 {
				lo := bits.TrailingZeros64(w)
				run := bits.TrailingZeros64(^(w >> uint(lo))) // 64 when lo = 0 and w = ^0
				enc.AddRun(base+int64(lo), int64(run))
				if lo+run == 64 {
					break
				}
				w &^= 1<<uint(lo+run) - 1
			}
			bs[wi] = 0
		}
		return
	}
	keys := slices.Grow(hb.keys[:0], int(end-start))
	for _, l := range hb.lists {
		for _, p := range l {
			keys = append(keys, int64(h.Hash(uint64(p))))
		}
	}
	keys, hb.tmp = radixSort(keys, hb.tmp)
	hb.keys = keys
	last := int64(-1)
	for _, v := range keys {
		if v != last {
			enc.Add(v)
			last = v
		}
	}
}

// radixSort sorts the non-negative keys a in linear time: an LSD radix sort
// over bytes that skips every byte on which all keys agree (so keys below
// 2^32 take at most four passes, fewer when they span a narrower range).
// tmp is scratch of any capacity. It returns the sorted keys and the spare
// buffer; either may alias a or tmp.
func radixSort(a, tmp []int64) (sorted, spare []int64) {
	var diff uint64
	for _, v := range a {
		diff |= uint64(v ^ a[0])
	}
	if cap(tmp) < len(a) {
		tmp = make([]int64, len(a))
	}
	tmp = tmp[:len(a)]
	for shift := uint(0); diff>>shift != 0; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue
		}
		var count [256]int
		for _, v := range a {
			count[byte(uint64(v)>>shift)]++
		}
		sum := 0
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for _, v := range a {
			b := byte(uint64(v) >> shift)
			tmp[count[b]] = v
			count[b]++
		}
		a, tmp = tmp, a
	}
	return a, tmp
}

// maxJ returns k ≈ lg lg n, the deepest hashed level, chosen as the least k
// with 2^(2^k) >= n so the coarsest hashed universe reaches the position
// universe (beyond that a hashed set cannot beat the exact one; the paper's
// ⌊lg lg n⌋ is the same value up to rounding, and the space analysis is
// unchanged since level sizes decay geometrically upward).
func maxJ(n int64) int {
	lgn := mathbitsLen(n - 1)
	k := 1
	for 1<<uint(k) < lgn && 1<<uint(k+1) <= 56 {
		k++
	}
	return k
}

// mathbitsLen is bits.Len64 for int64 inputs clamped at >= 1.
func mathbitsLen(v int64) int {
	if v < 1 {
		return 1
	}
	l := 0
	for x := uint64(v); x > 0; x >>= 1 {
		l++
	}
	return l
}

// Name implements index.Index.
func (ax *Approx) Name() string { return "pr-approx" }

// K returns the number of hashed levels stored.
func (ax *Approx) K() int { return ax.k }

// Seed returns the hash seed (indexes must share it to intersect results).
func (ax *Approx) Seed() int64 { return ax.seed }

// SizeBits includes the hashed sets on top of the exact structure.
func (ax *Approx) SizeBits() int64 {
	bits := ax.Optimal.SizeBits()
	for _, hl := range ax.hmaps {
		for _, arr := range hl.perJ {
			bits += int64(len(arr.exts)) * 3 * 64
			for _, e := range arr.exts {
				bits += e.Bits
			}
		}
	}
	return bits
}

// Result is the answer to an approximate range query: either an exact
// compressed position set (when no hashed level could help), or a hashed
// set together with the function that produced it, from which membership,
// candidate enumeration and intersections are computed without further
// I/Os.
type Result struct {
	N     int64
	Exact *cbitmap.Bitmap // non-nil for exact answers
	J     int
	H     hashutil.SplitXOR
	Set   *cbitmap.Bitmap // hashed set over [0, 2^(2^J))
}

// IsExact reports whether the result carries no false positives.
func (r *Result) IsExact() bool { return r.Exact != nil }

// Contains reports whether position i is in the (super)set.
func (r *Result) Contains(i int64) bool {
	if r.Exact != nil {
		return r.Exact.Contains(i)
	}
	return r.Set.Contains(int64(r.H.Hash(uint64(i))))
}

// contains with a prebuilt membership table, for hot loops.
func (r *Result) memberFn() func(int64) bool {
	if r.Exact != nil {
		set := make(map[int64]struct{}, r.Exact.Card())
		it := r.Exact.Iter()
		for p, ok := it.Next(); ok; p, ok = it.Next() {
			set[p] = struct{}{}
		}
		return func(i int64) bool { _, ok := set[i]; return ok }
	}
	set := make(map[int64]struct{}, r.Set.Card())
	it := r.Set.Iter()
	for s, ok := it.Next(); ok; s, ok = it.Next() {
		set[s] = struct{}{}
	}
	return func(i int64) bool {
		_, ok := set[int64(r.H.Hash(uint64(i)))]
		return ok
	}
}

// CandidateCount returns |Iˆ| — the number of positions the result admits
// (exactly z for exact results; about z + εn for hashed ones).
func (r *Result) CandidateCount() int64 {
	if r.Exact != nil {
		return r.Exact.Card()
	}
	var total int64
	it := r.Set.Iter()
	for s, ok := it.Next(); ok; s, ok = it.Next() {
		total += r.H.PreimageCount(uint64(s), r.N)
	}
	return total
}

// Candidates materialises Iˆ as a sorted compressed bitmap ("we do not want
// to output the preimage (it is quite large)" — this is for tests and for
// final result delivery after intersections have shrunk the set).
func (r *Result) Candidates() (*cbitmap.Bitmap, error) {
	if r.Exact != nil {
		return r.Exact, nil
	}
	var pos []int64
	it := r.Set.Iter()
	for s, ok := it.Next(); ok; s, ok = it.Next() {
		pre := r.H.Preimage(uint64(s), r.N)
		for p, okp := pre.Next(); okp; p, okp = pre.Next() {
			pos = append(pos, int64(p))
		}
	}
	return cbitmap.FromUnsorted(r.N, pos)
}

// Intersect computes the intersection of approximate results without any
// I/O. Results hashed at the same level intersect their hashed sets (the
// preimage of the intersection, §3); mixed forms filter the smaller side's
// candidates through the other results' membership tests.
func Intersect(rs ...*Result) (*Result, error) {
	if len(rs) == 0 {
		return nil, fmt.Errorf("core: Intersect of nothing")
	}
	if len(rs) == 1 {
		return rs[0], nil
	}
	n := rs[0].N
	for _, r := range rs {
		if r.N != n {
			return nil, fmt.Errorf("core: Intersect over different universes")
		}
	}
	// Fast path: all hashed with identical function.
	allSame := true
	for _, r := range rs {
		if r.IsExact() || r.J != rs[0].J || r.H != rs[0].H {
			allSame = false
			break
		}
	}
	if allSame {
		set := rs[0].Set
		for _, r := range rs[1:] {
			var err error
			set, err = cbitmap.Intersect(set, r.Set)
			if err != nil {
				return nil, err
			}
		}
		return &Result{N: n, J: rs[0].J, H: rs[0].H, Set: set}, nil
	}
	// General path: enumerate the cheapest result's candidates and test the
	// rest; the output is exact with respect to the input supersets.
	sorted := append([]*Result(nil), rs...)
	slices.SortFunc(sorted, func(a, b *Result) int {
		return cmp.Compare(a.CandidateCount(), b.CandidateCount())
	})
	members := make([]func(int64) bool, len(sorted)-1)
	for i, r := range sorted[1:] {
		members[i] = r.memberFn()
	}
	base, err := sorted[0].Candidates()
	if err != nil {
		return nil, err
	}
	var pos []int64
	it := base.Iter()
	for p, ok := it.Next(); ok; p, ok = it.Next() {
		keep := true
		for _, m := range members {
			if !m(p) {
				keep = false
				break
			}
		}
		if keep {
			pos = append(pos, p)
		}
	}
	bm, err := cbitmap.FromPositions(n, pos)
	if err != nil {
		return nil, err
	}
	return &Result{N: n, Exact: bm}, nil
}

// readHashStreams reads, in one contiguous scan, the j-th hashed frontier of
// cover subtree v and appends one decode stream per member to sc — the
// hashed-set analogue of Optimal.readCoverStreams.
func (ax *Approx) readHashStreams(tc *iomodel.Touch, v *Node, j int, sc *queryScratch, stats *index.QueryStats) error {
	li := ax.levelFor(v.Depth)
	lv := &ax.levels[li]
	i, jj, err := lv.chunk(v.Start, v.End)
	if err != nil {
		return err
	}
	arr := &ax.hmaps[li].perJ[j-1]
	span := iomodel.Extent{
		Off:  arr.exts[i].Off,
		Bits: arr.exts[jj-1].End() - arr.exts[i].Off,
	}
	cb := sc.nextBuf()
	if err := tc.ReaderInto(span, cb.w); err != nil {
		return err
	}
	cb.r.Init(cb.w.Bytes(), cb.w.Len())
	stats.BitsRead += span.Bits
	univ := int64(1) << uint(1<<uint(j))
	for k := i; k < jj; k++ {
		var s cbitmap.Stream
		if err := s.InitDecode(&cb.r, int(arr.exts[k].Off-span.Off), int(arr.exts[k].Bits), arr.cards[k], univ, 0); err != nil {
			return fmt.Errorf("core: hashed level j=%d member %d: %w", j, k, err)
		}
		sc.streams = append(sc.streams, s)
	}
	return nil
}

// ApproxQuery answers I[lo;hi] with false-positive probability at most eps
// per non-member ("The parameter ε is supplied as an argument to the query
// algorithm"). When no hashed level is coarse enough to save I/O, the exact
// Theorem 2 algorithm runs instead.
func (ax *Approx) ApproxQuery(r index.Range, eps float64) (*Result, index.QueryStats, error) {
	return ax.ApproxQueryContext(context.Background(), r, eps)
}

// ApproxQueryContext answers like ApproxQuery, checking ctx for cancellation
// between cover members and populating stats even on an error return
// (including the session's failed read attempts), so retry layers can
// account every attempt.
func (ax *Approx) ApproxQueryContext(ctx context.Context, r index.Range, eps float64) (res *Result, stats index.QueryStats, err error) {
	if err = r.Valid(ax.tree.sigma); err != nil {
		return nil, stats, err
	}
	if eps <= 0 || eps >= 1 {
		return nil, stats, fmt.Errorf("core: eps %v outside (0,1)", eps)
	}
	tc := ax.disk.NewTouch()
	defer tc.Close()
	defer func() {
		stats.Reads, stats.Writes = tc.Reads(), tc.Writes()
		stats.FailedReads = tc.FailedReads()
	}()
	aLo, err := tc.ReadBits(ax.aExt.Off+int64(r.Lo)*64, 64)
	if err != nil {
		return nil, stats, err
	}
	aHi, err := tc.ReadBits(ax.aExt.Off+int64(r.Hi+1)*64, 64)
	if err != nil {
		return nil, stats, err
	}
	qlo, qhi := int64(aLo), int64(aHi)
	z := qhi - qlo

	// Choose the smallest j with 2^(2^j) > z/ε.
	j := 0
	for jj := 1; jj <= ax.k; jj++ {
		if math.Exp2(float64(int64(1)<<uint(jj))) > float64(z)/eps {
			j = jj
			break
		}
	}
	if j == 0 {
		// "If j > k we cannot save anything": answer exactly. The exact path
		// opens its own session; this one's stats stay plan-phase only.
		exact, st, err := ax.QueryContext(ctx, r)
		if err != nil {
			return nil, st, err
		}
		return &Result{N: ax.tree.n, Exact: exact}, st, nil
	}

	// Fused streaming pipeline over the hashed frontier: the cover members'
	// gap streams merge directly into the answer set, decoding each bit read
	// exactly once (cf. Optimal.Query).
	sc := getScratch()
	defer sc.release()
	var chargeErr error
	cover := ax.tree.Cover(qlo, qhi, func(v *Node) {
		if cerr := ax.layout.charge(tc, v); cerr != nil && chargeErr == nil {
			chargeErr = cerr
		}
	})
	if chargeErr != nil {
		return nil, stats, chargeErr
	}
	for _, v := range cover {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		if err := ax.layout.charge(tc, v); err != nil {
			return nil, stats, err
		}
		if err := ax.readHashStreams(tc, v, j, sc, &stats); err != nil {
			return nil, stats, err
		}
	}
	univ := int64(1) << uint(1<<uint(j))
	set, err := cbitmap.MergeStreams(univ, sc.streamPtrs()...)
	if err != nil {
		return nil, stats, err
	}
	return &Result{N: ax.tree.n, J: j, H: ax.hs[j-1], Set: set}, stats, nil
}

var _ index.Index = (*Approx)(nil)
