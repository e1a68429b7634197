// Skew analysis: why symmetric caching works. Reproduces the paper's
// motivating analyses (Figures 1 and 3) and then demonstrates the effect on
// a live in-process cluster: the same Zipfian workload served by the Base
// design and by ccKVS.
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workload"
	"repro/internal/zipf"
)

func main() {
	// 1. The problem: a few keys hog the load (Figure 1).
	fmt.Print(experiments.Fig1().Render())
	fmt.Println()

	// 2. The opportunity: a tiny cache absorbs most accesses (Figure 3).
	fmt.Print(experiments.Fig3().Render())
	fmt.Println()

	// 3. Live demonstration at laptop scale: identical skewed workloads
	// against Base and ccKVS-SC, issued serially round-robin over the nodes.
	// Throughput is measured by benchmark/, not here.
	const (
		nodes   = 4
		numKeys = 20000
		hotKeys = 200
		ops     = 24000
	)
	wl := workload.Config{NumKeys: numKeys, Alpha: 0.99, WriteRatio: 0.01, Seed: 7}

	run := func(name string, cfg cluster.Config) (remote uint64) {
		c, err := cluster.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		c.Populate()
		if cfg.System == cluster.CCKVS {
			c.InstallHotSet(cluster.DefaultHotSet(cfg.CacheItems))
		}
		g := workload.MustNew(wl)
		for i := 0; i < ops; i++ {
			n := c.Node(i % nodes)
			if op := g.Next(); op.Type == workload.Put {
				err = n.Put(op.Key, op.Value)
			} else {
				_, err = n.Get(op.Key)
			}
			if err != nil {
				log.Fatal(err)
			}
		}
		var hits, misses uint64
		for i := 0; i < nodes; i++ {
			hits += c.Node(i).CacheHits.Load()
			misses += c.Node(i).CacheMisses.Load()
			remote += c.Node(i).RemoteOps.Load()
		}
		hitRate := 0.0
		if hits+misses > 0 {
			hitRate = float64(hits) / float64(hits+misses)
		}
		fmt.Printf("%-10s hit rate %5.1f%%   remote accesses %d\n", name, hitRate*100, remote)
		return remote
	}

	fmt.Println("live cluster comparison (4 nodes, alpha=0.99, 1% writes):")
	base := run("Base", cluster.Config{Nodes: nodes, System: cluster.Base, NumKeys: numKeys})
	cc := run("ccKVS-SC", cluster.Config{
		Nodes: nodes, System: cluster.CCKVS, Protocol: core.SC,
		NumKeys: numKeys, CacheItems: hotKeys,
	})

	analytic := zipf.TopMass(hotKeys, numKeys, 0.99)
	fmt.Printf("\nccKVS avoided %.0f%% of Base's remote accesses (analytic hit rate %.1f%%)\n",
		(1-float64(cc)/float64(base))*100, analytic*100)
}
