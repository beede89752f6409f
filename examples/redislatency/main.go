// Redis tail-latency tuning — the tutorial's running example (slides
// 26-48): minimize the P95 latency of a (simulated) Redis server by tuning
// the kernel knob sched_migration_cost_ns plus a few server knobs, and
// compare the three strategies the slides walk through: grid search,
// random search, and Bayesian optimization.
package main

import (
	"fmt"
	"math/rand"

	"autotune"
	"autotune/internal/optimizer"
	"autotune/internal/simsys"
	"autotune/internal/workload"
)

func main() {
	redis := simsys.NewRedis(simsys.MediumVM())
	redis.NoiseSigma = 0.01 // a little measurement noise, like real life
	wl := workload.YCSBB()  // read-mostly cache traffic
	rng := rand.New(rand.NewSource(7))

	p95 := func(c autotune.Config) float64 {
		m, err := redis.Run(c, wl, 1, rng)
		if err != nil {
			return 1e6
		}
		return m.P95MS
	}
	budget := 30

	defP95 := p95(redis.Space().Default())
	fmt.Printf("default config: P95 = %.3f ms\n\n", defP95)
	fmt.Printf("%-10s %12s %12s\n", "strategy", "P95 (ms)", "vs default")

	show := func(name string, best float64) {
		fmt.Printf("%-10s %12.3f %11.1f%%\n", name, best, 100*(defP95-best)/defP95)
	}

	grid := optimizer.NewGrid(redis.Space(), budget)
	_, gBest, err := autotune.Minimize(grid, p95, budget)
	must(err)
	show("grid", gBest)

	random, err := autotune.NewOptimizer("random", redis.Space(), 7)
	must(err)
	_, rBest, err := autotune.Minimize(random, p95, budget)
	must(err)
	show("random", rBest)

	bayes, err := autotune.NewOptimizer("bo", redis.Space(), 7)
	must(err)
	bBest, bVal, err := autotune.Minimize(bayes, p95, budget)
	must(err)
	show("bo", bVal)

	fmt.Printf("\nBO's pick: sched_migration_cost_ns = %d, io_threads = %d, tcp_nodelay = %v\n",
		bBest.Int("sched_migration_cost_ns"), bBest.Int("io_threads"), bBest.Bool("tcp_nodelay"))
	fmt.Println("\nThe tutorial reports a 68% P95 reduction from kernel tuning — the")
	fmt.Println("same shape the model-guided search recovers here in 30 trials.")
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
