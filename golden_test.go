package secidx

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

// TestGoldenImageDigests pins the sha256 of the v2 WriteFile image of three
// small fixed columns built with default options. Any change to the bytes a
// build lays down — member streams, hashed-set extents, their order or
// placement, the metadata sections — changes a digest and fails here, so a
// build-path refactor that claims byte-identical output is checked by the
// ordinary test suite. The uniform column is large enough (n > 2^16) to
// store a hashed level over the 2^32 universe; the other two stop at
// universes of at most 2^16.
func TestGoldenImageDigests(t *testing.T) {
	cases := []struct {
		name string
		col  workload.Column
		want string
	}{
		{"uniform-n70000-s256", workload.Uniform(70000, 256, 7), "b9845aa7819f81e9a13924373fb10cbf32da3a9b353a16402205b46c3b0da1e0"},
		{"zipf-n20000-s1024", workload.Zipf(20000, 1024, 1.1, 11), "9d381710679ff8693dc62576c3b7bc0a59d6dd62fd6ea264c8f7f082f1d06985"},
		{"single-n3000-s1", workload.Uniform(3000, 1, 13), "8f046b126d258d73b8fc91d6617084a1821a0b0e030722c927ada06ec5f34954"},
	}
	dir := t.TempDir()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ix, err := Build(c.col.X, c.col.Sigma, Options{})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, c.name+".sidx")
			if err := ix.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			img, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(img)
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("image digest %s (%d bytes), want %s", got, len(img), c.want)
			}
		})
	}
}
