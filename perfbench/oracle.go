package main

import (
	"slices"

	secidx "repro"
)

// oracle answers range queries from the generated column itself: Card from
// a per-key prefix-count table, full row sets from a column scan.
type oracle struct {
	col    []uint32
	prefix []int64 // prefix[k] = rows with key < k
}

func newOracle(col []uint32, sigma int) *oracle {
	o := &oracle{col: col, prefix: make([]int64, sigma+1)}
	for _, k := range col {
		o.prefix[k+1]++
	}
	for k := 1; k <= sigma; k++ {
		o.prefix[k] += o.prefix[k-1]
	}
	return o
}

func (o *oracle) card(r keyRange) int64 { return o.prefix[r.hi+1] - o.prefix[r.lo] }

// rows scans the column for the rows whose key lies in r.
func (o *oracle) rows(r keyRange) []int64 {
	var out []int64
	for i, k := range o.col {
		if k >= r.lo && k <= r.hi {
			out = append(out, int64(i))
		}
	}
	return out
}

// sameRows reports whether res holds exactly the rows the column scan finds.
func (o *oracle) sameRows(res *secidx.Result, r keyRange) bool {
	return slices.Equal(res.Rows(), o.rows(r))
}
