#!/usr/bin/env bash
# Hypothesis study: "public Build is sort-bound, not encode-bound".
#
# Builds the same column with public secidx.Build at two commits that differ
# only in how core.BuildApprox builds the Theorem 3 hashed sets, and prints,
# per side: the median build time, SizeBits, the sha256 of the v2 WriteFile
# image, the process's VmHWM, and the CPU-profile split between sorting,
# BuildOptimal and the hashed-set loop.
#
# Usage: hypotheses/public-build-sort-bound/run.sh [before-ref] [after-ref] [reps]
#   before-ref  commit with the per-member sort path (default: 91be980)
#   after-ref   commit with the streaming hashed-set build (default: HEAD);
#               WORKTREE exports the working tree's tracked and untracked
#               files instead, to measure uncommitted changes
#   reps        builds per side; the median is reported (default: 3)
# Env: N overrides the row count (default 2097152 = 2^21).
#
# Fixed inputs: Zipf θ=1.1, σ=4096, column seed 1, hash seed 0, default
# Options. Each side is exported with git archive into a temporary directory
# and built there, so the working tree is never modified.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

BEFORE="${1:-91be980}"
AFTER="${2:-HEAD}"
REPS="${3:-3}"
N="${N:-2097152}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# The driver program: written into each exported tree under a directory that
# ./... patterns skip, so it can reach the module's internal packages.
driver() {
  cat <<'EOF'
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	secidx "repro"
	"repro/internal/workload"
)

func main() {
	n := flag.Int("n", 1<<21, "rows")
	reps := flag.Int("reps", 3, "builds")
	prof := flag.String("cpuprofile", "", "CPU profile path")
	flag.Parse()
	col := workload.Zipf(*n, 4096, 1.1, 1)
	f, err := os.Create(*prof)
	if err != nil {
		panic(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		panic(err)
	}
	var ts []float64
	var ix *secidx.Index
	for i := 0; i < *reps; i++ {
		ix = nil
		t0 := time.Now()
		if ix, err = secidx.Build(col.X, col.Sigma, secidx.Options{}); err != nil {
			panic(err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	pprof.StopCPUProfile()
	f.Close()
	slices.Sort(ts)
	fmt.Printf("build_s_median %.3f  runs %v\n", ts[len(ts)/2], ts)
	fmt.Printf("size_bits %d\n", ix.SizeBits())
	path := filepath.Join(os.TempDir(), "image.sidx")
	if err := ix.WriteFile(path); err != nil {
		panic(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		panic(err)
	}
	fmt.Printf("image %d bytes sha256 %x\n", len(img), sha256.Sum256(img))
	status, _ := os.ReadFile("/proc/self/status")
	for _, l := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(l, "VmHWM") {
			fmt.Println(l)
		}
	}
}
EOF
}

for side in before after; do
  ref="$BEFORE"
  [ "$side" = after ] && ref="$AFTER"
  tree="$WORK/$side"
  mkdir -p "$tree"
  if [ "$ref" = WORKTREE ]; then
    git ls-files -co --exclude-standard -z | tar --null --ignore-failed-read -T - -cf - 2>/dev/null | tar -x -C "$tree"
    label=WORKTREE
  else
    git archive "$ref" | tar -x -C "$tree"
    label="$(git rev-parse --short "$ref")"
  fi
  mkdir -p "$tree/_buildprof"
  driver > "$tree/_buildprof/main.go"
  (cd "$tree" && go build -o "$WORK/$side.bin" ./_buildprof)
  echo "== $side ($label) =="
  TMPDIR="$WORK" "$WORK/$side.bin" -n "$N" -reps "$REPS" -cpuprofile "$WORK/$side.pprof"
  echo "-- CPU split (cum) --"
  go tool pprof -top -cum "$WORK/$side.bin" "$WORK/$side.pprof" 2>/dev/null |
    grep -E 'Total samples|secidx\.Build$|repro\.Build$|core\.BuildApprox$|core\.BuildOptimal$|slices\.Sort\[|Tree\)\.Positions$|cbitmap\.FromUnsorted$|hashedSetBuilder\)\.encode$|core\.radixSort$|StreamEncoder\)\.MergeSortedSlices$|Disk\)\.AllocStream$' || true
  echo "-- BuildApprox and the hashed-set encoder by line --"
  go tool pprof -list 'core\.BuildApprox$|hashedSetBuilder\)\.encode$' "$WORK/$side.bin" "$WORK/$side.pprof" 2>/dev/null |
    grep -vE '^ +\. +\. ' | sed -n '1,48p'
  echo
done
