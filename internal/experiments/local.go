package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workload"
)

// LocalValidation runs the real in-process cluster (actual protocol traffic
// over the fabric transport) at laptop scale and reports relative
// throughput and hit rates. Absolute numbers depend on the host; the
// qualitative ordering must match the paper: ccKVS serves the skewed
// workload mostly from its caches while the baselines push most requests
// over the fabric.
func LocalValidation(opsPerClient int) (Table, error) {
	if opsPerClient <= 0 {
		opsPerClient = 2000
	}
	t := Table{
		ID:      "local",
		Title:   "In-process cluster validation [5 nodes, alpha=0.99, 1% writes]",
		Columns: []string{"system", "throughput ops/s", "hit rate %", "remote ops", "p95 read us"},
	}
	const (
		nodes   = 5
		numKeys = 20000
		cacheSz = 200 // 1% of keys -> high hit rate at this scale
	)
	configs := []struct {
		name string
		cfg  cluster.Config
	}{
		{"Base-EREW", cluster.Config{Nodes: nodes, System: cluster.BaseEREW, NumKeys: numKeys}},
		{"Base", cluster.Config{Nodes: nodes, System: cluster.Base, NumKeys: numKeys}},
		{"ccKVS-SC", cluster.Config{Nodes: nodes, System: cluster.CCKVS, Protocol: core.SC, NumKeys: numKeys, CacheItems: cacheSz}},
		{"ccKVS-Lin", cluster.Config{Nodes: nodes, System: cluster.CCKVS, Protocol: core.Lin, NumKeys: numKeys, CacheItems: cacheSz}},
	}
	for _, c := range configs {
		cl, err := cluster.New(c.cfg)
		if err != nil {
			return Table{}, fmt.Errorf("%s: %w", c.name, err)
		}
		cl.Populate()
		if c.cfg.System == cluster.CCKVS {
			cl.InstallHotSet(cluster.DefaultHotSet(c.cfg.CacheItems))
		}
		res, err := cl.Run(cluster.RunOptions{
			Clients:      8,
			OpsPerClient: opsPerClient,
			Workload: workload.Config{
				NumKeys: numKeys, Alpha: 0.99, WriteRatio: 0.01, ValueSize: 40, Seed: 77,
			},
		})
		cl.Close()
		if err != nil {
			return Table{}, fmt.Errorf("%s: %w", c.name, err)
		}
		t.AddRow(c.name, res.Throughput, res.HitRate()*100,
			int(res.RemoteOps), float64(res.ReadLat.P95)/1000)
	}
	t.Notes = append(t.Notes,
		"functional validation on the real in-process cluster; paper-scale numbers come from the calibrated simulator (fig8/fig10)")
	return t, nil
}
