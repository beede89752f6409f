package gp

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestGoldenFitHyper pins the hyperparameter search bit for bit: fitted
// hyperparameters, noise, log marginal likelihood, the evaluation count,
// and the posterior at 17 probe points, as hex float bits in
// testdata/fithyper.golden. A kernel rewrite that claims exactness must
// leave the file untouched; a change to the search itself regenerates it
// deliberately with `UPDATE=1 go test ./internal/gp -run TestGoldenFitHyper`.
//
// Each arm runs FitHyper from bo's defaults (lengthscale 0.2, two random
// restarts) on a seeded n=96, d=6 design, but from noise 1e-4, not bo's
// 1e-6: ln(1e-6) is below FitHyper's -12 bound, and from there the search
// is a no-op until a restart lands in range. Reference counts from before
// FitHyper had a stopping tolerance, every search running its 120
// iterations: matern25 623 evaluations (LML 44.47), rbf 626 (36.23). The
// matern25 arm now pins the plateau stop FitHyper's comment warns of.
func TestGoldenFitHyper(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits are pinned on amd64: fused multiply-add changes low bits elsewhere")
	}
	arms := []struct {
		name   string
		kernel Kernel
	}{
		{"matern25", Scale(1, NewMatern(2.5, 0.2))},
		{"rbf", Scale(1, NewRBF(0.2))},
	}
	probe, _ := perfTrainingData(17, 6, 15)
	var got bytes.Buffer
	hex := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	for _, arm := range arms {
		xs, ys := perfTrainingData(96, 6, 13)
		g := New(arm.kernel, 1e-4)
		if err := g.FitHyper(xs, ys, 2, rand.New(rand.NewSource(14))); err != nil {
			t.Fatalf("%s: fithyper: %v", arm.name, err)
		}
		fmt.Fprintf(&got, "%s hyper", arm.name)
		for _, h := range g.Kernel().Hyper() {
			fmt.Fprintf(&got, " %s", hex(h))
		}
		lml, err := g.LogMarginalLikelihood()
		if err != nil {
			t.Fatalf("%s: lml: %v", arm.name, err)
		}
		fmt.Fprintf(&got, "\n%s noise %s\n%s lml %s\n%s evals %d\n",
			arm.name, hex(g.Noise()), arm.name, hex(lml), arm.name, g.HyperEvals())
		mean, vari := make([]float64, len(probe)), make([]float64, len(probe))
		if err := g.PredictN(probe, mean, vari); err != nil {
			t.Fatalf("%s: predictn: %v", arm.name, err)
		}
		for i := range probe {
			fmt.Fprintf(&got, "%s predict %02d %s %s\n", arm.name, i, hex(mean[i]), hex(vari[i]))
		}
	}
	path := filepath.Join("testdata", "fithyper.golden")
	if os.Getenv("UPDATE") == "1" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with UPDATE=1): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("fit diverges from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("fit length differs from %s: got %d lines, want %d", path, len(gl), len(wl))
	}
}
