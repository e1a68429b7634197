package cluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// RunResult summarizes a measurement run.
type RunResult struct {
	System     string
	Ops        uint64
	Duration   time.Duration
	Throughput float64 // ops per second
	ReadLat    metrics.HistSnapshot
	WriteLat   metrics.HistSnapshot
	CacheHits  uint64
	CacheMiss  uint64
	LocalOps   uint64
	RemoteOps  uint64
	// TrafficShares is the byte share per message class (Figure 11).
	TrafficShares map[metrics.MsgClass]float64
	TotalBytes    uint64
}

// String renders a one-line summary.
func (r RunResult) String() string {
	return fmt.Sprintf("%s: %.0f ops/s (%d ops, hits=%d misses=%d local=%d remote=%d)",
		r.System, r.Throughput, r.Ops, r.CacheHits, r.CacheMiss, r.LocalOps, r.RemoteOps)
}

// HitRate returns the measured cache hit ratio.
func (r RunResult) HitRate() float64 {
	total := r.CacheHits + r.CacheMiss
	if total == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(total)
}

// RunOptions controls a measurement run.
type RunOptions struct {
	// Clients is the number of closed-loop client goroutines; each picks
	// servers round-robin starting at a different offset, the load
	// balancing the paper prescribes for the black-box abstraction.
	Clients int
	// OpsPerClient bounds the run by operation count.
	OpsPerClient int
	// BatchSize > 1 drives the cluster through MultiGet/MultiPut in client
	// batches of that many operations — the application-level half of the
	// request coalescing of §6.3 (the pipeline coalesces whatever is
	// concurrently outstanding either way). 0 or 1 issues one op per call.
	BatchSize int
	// Workload generates the request stream (cloned per client).
	Workload workload.Config
	// RefreshEvery, when positive (and OnRefresh is set), runs the epoch
	// refresh loop of §4 in the background for the duration of the run:
	// OnRefresh is invoked every RefreshEvery while the clients are
	// issuing requests — concurrently with them, which is the point (the
	// hot set adapts under live traffic). The loop stops when the last
	// client finishes.
	RefreshEvery time.Duration
	// OnRefresh closes an epoch: typically it asks a topk.Coordinator for
	// the new hot set and applies the delta with Cluster.ApplyHotSetDelta
	// (or reinstalls in full with InstallHotSet, the ablation baseline).
	OnRefresh func()
	// Observe, when set, is called with every generated key before the
	// operation executes — the request-sampling hook that feeds the
	// popularity tracker (§4).
	Observe func(key uint64)
}

// Run drives the cluster with closed-loop clients and returns aggregate
// measurements. The dataset and (for ccKVS) hot set must already be in
// place (Populate / InstallHotSet).
func (c *Cluster) Run(opts RunOptions) (RunResult, error) {
	if opts.Clients <= 0 {
		opts.Clients = 4
	}
	if opts.OpsPerClient <= 0 {
		opts.OpsPerClient = 1000
	}
	gen, err := workload.New(opts.Workload)
	if err != nil {
		return RunResult{}, err
	}

	readLat := metrics.NewHistogram()
	writeLat := metrics.NewHistogram()
	var firstErr error
	var errMu sync.Mutex

	start := time.Now()

	// Background epoch-refresh loop (§4): reconfigures the hot set while
	// the clients below are in full flight.
	var refreshWG sync.WaitGroup
	refreshStop := make(chan struct{})
	if opts.RefreshEvery > 0 && opts.OnRefresh != nil {
		refreshWG.Add(1)
		go func() {
			defer refreshWG.Done()
			tick := time.NewTicker(opts.RefreshEvery)
			defer tick.Stop()
			for {
				select {
				case <-refreshStop:
					return
				case <-tick.C:
					opts.OnRefresh()
				}
			}
		}()
	}

	// Clients round-robin across the nodes present in this process: every
	// node of an in-process cluster, just the local one in member form (a
	// multi-process deployment is driven per member, or externally through
	// the session layer by cmd/cckvs-load).
	locals := c.locals

	var wg sync.WaitGroup
	for cl := 0; cl < opts.Clients; cl++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			g := gen.Clone(uint64(id))
			node := id % len(locals)
			fail := func(i int, op workload.Op, err error) {
				errMu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("client %d op %d (%s key %d): %w",
						id, i, op.Type, op.Key, err)
				}
				errMu.Unlock()
			}
			// Batched calls cannot name the failing op (MultiGet/MultiPut
			// report only the first error of the batch); attribute the
			// whole batch instead of fabricating an op.
			failBatch := func(i int, kind string, keys []uint64, err error) {
				errMu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("client %d %s batch of %d keys ending at op %d: %w",
						id, kind, len(keys), i, err)
				}
				errMu.Unlock()
			}
			for i := 0; i < opts.OpsPerClient; {
				n := locals[node]
				node = (node + 1) % len(locals) // round-robin load balance
				if opts.BatchSize <= 1 {
					op := g.Next()
					if opts.Observe != nil {
						opts.Observe(op.Key)
					}
					t0 := time.Now()
					var err error
					if op.Type == workload.Put {
						err = n.Put(op.Key, op.Value)
						writeLat.Record(uint64(time.Since(t0).Nanoseconds()))
					} else {
						_, err = n.Get(op.Key)
						readLat.Record(uint64(time.Since(t0).Nanoseconds()))
					}
					if err != nil {
						fail(i, op, err)
						return
					}
					i++
					continue
				}
				// Batched mode: gather up to BatchSize ops and issue them as
				// one MultiGet plus one MultiPut. Latency is recorded per
				// call, mirroring what a batching client observes.
				var getKeys, putKeys []uint64
				var putVals [][]byte
				for len(getKeys)+len(putKeys) < opts.BatchSize && i < opts.OpsPerClient {
					op := g.Next()
					if opts.Observe != nil {
						opts.Observe(op.Key)
					}
					if op.Type == workload.Put {
						putKeys = append(putKeys, op.Key)
						// The generator reuses its value buffer; copy.
						putVals = append(putVals, append([]byte(nil), op.Value...))
					} else {
						getKeys = append(getKeys, op.Key)
					}
					i++
				}
				if len(putKeys) > 0 {
					t0 := time.Now()
					err := n.MultiPut(putKeys, putVals)
					writeLat.Record(uint64(time.Since(t0).Nanoseconds()))
					if err != nil {
						failBatch(i, "put", putKeys, err)
						return
					}
				}
				if len(getKeys) > 0 {
					t0 := time.Now()
					_, err := n.MultiGet(getKeys)
					readLat.Record(uint64(time.Since(t0).Nanoseconds()))
					if err != nil {
						failBatch(i, "get", getKeys, err)
						return
					}
				}
			}
		}(cl)
	}
	wg.Wait()
	close(refreshStop)
	refreshWG.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return RunResult{}, firstErr
	}

	res := RunResult{
		System:        c.systemName(),
		Ops:           uint64(opts.Clients * opts.OpsPerClient),
		Duration:      elapsed,
		ReadLat:       readLat.Snapshot(),
		WriteLat:      writeLat.Snapshot(),
		TrafficShares: c.stats.Traffic.Shares(),
		TotalBytes:    c.stats.Traffic.TotalBytes(),
	}
	res.Throughput = float64(res.Ops) / elapsed.Seconds()
	for _, n := range c.locals {
		res.CacheHits += n.CacheHits.Load()
		res.CacheMiss += n.CacheMisses.Load()
		res.LocalOps += n.LocalOps.Load()
		res.RemoteOps += n.RemoteOps.Load()
	}
	return res, nil
}

func (c *Cluster) systemName() string {
	if c.cfg.System == CCKVS {
		return "ccKVS-" + c.cfg.Protocol.String()
	}
	return c.cfg.System.String()
}

// VerifyShardIntegrity checks that every key is present on exactly its home
// shard (test support). In member form only locally-homed keys are checked.
func (c *Cluster) VerifyShardIntegrity() error {
	for k := uint64(0); k < c.cfg.NumKeys; k++ {
		home := c.HomeNode(k)
		if c.nodes[home] == nil {
			continue
		}
		if _, _, err := c.nodes[home].kvs.Get(k, nil); err != nil {
			return fmt.Errorf("key %d missing from home node %d: %w", k, home, err)
		}
	}
	return nil
}
