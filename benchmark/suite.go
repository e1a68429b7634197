package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// report is what the JSON files under benchmark/out carry: results plus the
// host and configuration they came from.
type report struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Seed        uint64      `json:"seed"`
	Seconds     int         `json:"seconds"`
	Reps        int         `json:"reps,omitempty"`
	Results     []*result   `json:"results"`
}

func withFingerprint(p paths, rs ...*result) report {
	return report{Fingerprint: readFingerprint(p.root), Seed: rs[0].Seed, Seconds: rs[0].Seconds, Results: rs}
}

// printResult prints one run for a human: every end-to-end metric by name
// with its unit, then the diagnostics that explain it.
func printResult(r *result) {
	l := r.Loop
	fmt.Printf("%s seed=%d: %d ops in %.0fs, %d calls in flight=%d\n", r.Workload, r.Seed, l.Ops, l.Seconds, l.Calls, inFlight)
	lo, hi := minMax(l.SegTput)
	fmt.Printf("  throughput_ops_s %.0f ops/s (median of %d 1s-segments, min %.0f max %.0f; whole window %.0f)\n", l.Throughput, len(l.SegTput), lo, hi, l.ThroughputAll)
	fmt.Printf("  lat_p50_us %.1f us   lat_p99_us %.1f us   (p999 %.1f us, ungated; n=%d calls)\n", l.P50us, l.P99us, l.P999us, l.Calls)
	fmt.Printf("  setup_s %.3f s (median of %v)\n", r.Setup, r.SetupS)
	fmt.Printf("  failed_frac %d/%d", r.Failed, r.Attempted)
	if r.FirstErr != "" {
		fmt.Printf("  first: %s", r.FirstErr)
	}
	c := r.Counts
	fmt.Printf("\n  node: hit_rate %.3f remote_frac %.3f frozen_retries %.0f cpu %.2f us/op ctxsw %.3f/op rss %.1f MB   driver cpu %.2f us/op\n",
		c.HitRate, c.RemoteFrac, c.FrozenRetries, c.NodeCPUus, c.NodeCtxsw, c.NodeRSSMB, c.DriverCPUus)
	fmt.Printf("  wire (loopback): %.3f pkts/op %.1f B/op   host: idle %.3f steal %.3f spin %.0f/%.0f Mops\n",
		c.WirePkts, c.WireBytes, c.HostIdle, c.HostSteal, r.SpinMops[0], r.SpinMops[1])
	if c.HostIdle > 0.2 {
		fmt.Printf("  FLAG: host.idle_frac %.2f > 0.2 — the box was not saturated; throughput is wake-up bound, not CPU bound\n", c.HostIdle)
	}
	if !r.Traced {
		return
	}
	fmt.Printf("  trace_overhead_frac %.4f (traced %.0f vs untraced %.0f ops/s on the same deployment)\n", r.TraceOverhead, l.Throughput, r.UntracedTput)
	for _, name := range classNames {
		s := r.Classes[name]
		fmt.Printf("  class.%-16s p50 %9.1f us  p99 %9.1f us  n=%d\n", name, s.P50us, s.P99us, s.N)
	}
	for _, o := range r.Open {
		fmt.Printf("  open.%.0f: p50 %.1f us p99 %.1f us from due time; late_max_ms %.2f; backlog at end %d of %d (reported, not gated)\n",
			o.RateOps, o.P50us, o.P99us, o.LateMaxMs, o.Backlog, o.Sent)
	}
	fmt.Printf("  %-36s %12s %10s %10s %12s\n", "ladder rung", "value", "allocs/op", "n", "self ns")
	for _, g := range r.Ladder {
		fmt.Printf("  %-36s %9.1f %-2s %10.2f %10d %12.1f\n", g.Name, g.Value, g.Unit, g.AllocsPerOp, g.N, g.SelfNs)
	}
	if r.ResidualUs != nil {
		fmt.Printf("  residual: class.get_hit p50 %.1f us - cluster.session.get_hit_us = %.1f us (TCP + process hop + queueing behind %d calls)\n",
			r.Classes["get_hit"].P50us, *r.ResidualUs, inFlight-1)
	}
}

// suiteSet is one pass over every workload, repetition by repetition.
type suiteSet struct{ results []*result }

// values returns one workload's values of an end-to-end metric, one per repetition.
func (s *suiteSet) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range s.results {
		if r.Workload == workload {
			xs = append(xs, r.endToEndValues()[metric])
		}
	}
	return xs
}

// runSet runs reps repetitions of every workload, interleaved round-robin
// (A B C D A B C D …) so host drift over minutes spreads over all workloads,
// each repetition on a fresh deployment.
func runSet(ctx context.Context, p paths, seed uint64, seconds, reps int, traced bool) (*suiteSet, error) {
	set := &suiteSet{}
	for rep := 0; rep < reps; rep++ {
		for _, w := range workloads {
			res, err := runOnce(ctx, p, w, seed, seconds, traced)
			if err != nil {
				return set, err
			}
			printResult(res)
			set.results = append(set.results, res)
		}
	}
	set.markNoisy()
	return set, nil
}

// markNoisy flags repetitions whose canary or idle share is more than 15%
// away from the set's median. They stay in the medians, but visibly.
func (s *suiteSet) markNoisy() {
	var spin, idle []float64
	for _, r := range s.results {
		spin = append(spin, r.SpinMops[0], r.SpinMops[1])
		idle = append(idle, r.Counts.HostIdle)
	}
	ms, mi := median(spin), median(idle)
	far := func(x, m float64) bool { return math.Abs(x-m) > 0.15*m }
	for _, r := range s.results {
		// Idle shares are small numbers; compare them as shares of the whole box.
		r.Noisy = far(r.SpinMops[0], ms) || far(r.SpinMops[1], ms) || math.Abs(r.Counts.HostIdle-mi) > 0.15
	}
}

func (s *suiteSet) failed() (failed, attempted int) {
	for _, r := range s.results {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}

func (s *suiteSet) print() {
	fmt.Printf("\n%-22s %-18s %12s %12s %12s %4s\n", "workload", "metric", "median", "min", "max", "n")
	for _, w := range workloads {
		for _, m := range endToEnd {
			xs := s.values(w.name, m.name)
			lo, hi := minMax(xs)
			fmt.Printf("%-22s %-18s %12.3f %12.3f %12.3f %4d  %s\n", w.name, m.name, median(xs), lo, hi, len(xs), m.unit)
		}
	}
	var noisy []string
	for i, r := range s.results {
		if r.Noisy {
			noisy = append(noisy, fmt.Sprintf("%s#%d", r.Workload, i/len(workloads)+1))
		}
	}
	sort.Strings(noisy)
	failed, attempted := s.failed()
	fmt.Printf("failed_frac %d/%d; noisy repetitions (canary or idle >15%% off the median): %v\n", failed, attempted, noisy)
}

// runSuite is the whole-suite mode. With selfcheck it runs two sets of the
// same code and fails if any metric's medians differ by more than its bound.
func runSuite(ctx context.Context, p paths, seed uint64, seconds, reps int, traced, selfcheck bool) int {
	sets := 1
	if selfcheck {
		sets = 2
	}
	var all []*suiteSet
	code := 0
	for i := 0; i < sets; i++ {
		set, err := runSet(ctx, p, seed, seconds, reps, traced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		set.print()
		if failed, _ := set.failed(); failed > 0 {
			code = 1
		}
		all = append(all, set)
	}
	file := "suite.json"
	if traced {
		file = "layers.json"
	}
	rep := withFingerprint(p, all[len(all)-1].results...)
	rep.Reps = reps
	if err := writeJSON(filepath.Join(p.out, file), rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !selfcheck {
		return code
	}
	fmt.Printf("\nselfcheck: two sets of the same code\n%-22s %-18s %12s %12s %9s %7s\n", "workload", "metric", "set A", "set B", "worse by", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := median(all[0].values(w.name, m.name)), median(all[1].values(w.name, m.name))
			// How much worse the worse set is, as a share of the better one:
			// neither set is "the parent", so the check is symmetric.
			diff := math.Abs(a-b) / math.Min(a, b)
			verdict := "ok"
			if diff > m.bound {
				verdict, code = "EXCEEDS BOUND", 1
			}
			fmt.Printf("%-22s %-18s %12.3f %12.3f %8.1f%% %6.0f%%  %s\n", w.name, m.name, a, b, 100*diff, 100*m.bound, verdict)
		}
	}
	return code
}
