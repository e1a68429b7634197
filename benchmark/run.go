package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
)

const (
	warmup     = 2 * time.Second
	setupReps  = 7 // set-ups per untraced run; setup_s is their median
	canaryTime = 500 * time.Millisecond

	openWorkers = 32 // open-loop sessions, beyond the closed loop's inFlight
)

// Open-loop rates (ops/s): about 25/50/75% of skew-single.sc's closed-loop
// throughput as recorded when the benchmark was defined (README "Sizing").
// Absolute, so a faster system shows as lower latency at the same rate.
var openRates = []float64{9000, 18000, 27000}

// classSummary is the latency of one op class over a traced window.
type classSummary struct {
	P50us float64 `json:"p50_us"`
	P99us float64 `json:"p99_us"`
	N     uint64  `json:"n"`
}

// openPoint is one fixed-rate open-loop window; latency runs from each
// request's due time, so a stall is charged to every request it delays.
type openPoint struct {
	RateOps   float64 `json:"rate_ops_s"`
	Seconds   float64 `json:"seconds"`
	Sent      int     `json:"sent"`
	P50us     float64 `json:"p50_us"`
	P99us     float64 `json:"p99_us"`
	LateMaxMs float64 `json:"late_max_ms"`
	Backlog   int     `json:"backlog_at_end"`
}

// result is everything one run of one workload measured.
type result struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Seconds  int        `json:"seconds"`
	Traced   bool       `json:"traced"`
	SetupS   []float64  `json:"setup_s_each"`
	Setup    float64    `json:"setup_s"`
	Loop     loopStats  `json:"closed_loop"`
	Counts   counts     `json:"counts"`
	SpinMops [2]float64 `json:"host.spin_mops_before_after"`
	Noisy    bool       `json:"noisy"`

	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	FirstErr  string `json:"first_error,omitempty"`

	// Traced runs only.
	Classes       map[string]classSummary `json:"classes,omitempty"`
	Ladder        []rung                  `json:"ladder,omitempty"`
	ResidualUs    *float64                `json:"residual.get_hit_us,omitempty"`
	TraceOverhead float64                 `json:"trace_overhead_frac"`
	UntracedTput  float64                 `json:"untraced_reference_ops_s,omitempty"`
	Open          []openPoint             `json:"open_loop,omitempty"`
}

func (r *result) note(attempted, failed int, err error) {
	r.Attempted += attempted
	r.Failed += failed
	if err != nil && r.FirstErr == "" {
		r.FirstErr = err.Error()
	}
}

func (r *result) noteCallers(cs []*caller) {
	for _, c := range cs {
		r.note(c.attempted, c.failed, c.firstErr)
		c.attempted, c.failed = 0, 0
	}
}

// runOnce measures one workload once. A returned error means the run could
// not be carried out (build, set-up, deadline); wrong or failed operations
// are counted in the result instead.
func runOnce(parent context.Context, p paths, w workloadSpec, seed uint64, seconds int, traced bool) (*result, error) {
	// Hard deadline: a wedged deployment fails the workload, it never hangs it.
	ctx, cancel := context.WithTimeout(parent, time.Duration(seconds)*2*time.Second+90*time.Second)
	defer cancel()

	res := &result{Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced}
	// Inputs exist before any clock starts.
	nCallers := inFlight
	if traced && w.batch == 1 {
		nCallers += openWorkers
	}
	cs := newCallers(w, seed, nCallers)
	closed := cs[:inFlight]

	res.SpinMops[0] = spinCanary(canaryTime)
	reps := setupReps
	if traced {
		reps = 1
	}
	var d *deployment
	for i := 0; i < reps; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = deploy(ctx, p, w, w.name); err != nil {
			return nil, fmt.Errorf("set-up %d of %s: %w", i+1, w.name, err)
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	}
	defer d.stop()
	res.Setup = median(res.SetupS)

	closedLoop(ctx, d.cl, closed, warmup, false, false)
	window := time.Duration(seconds) * time.Second
	var ref time.Duration
	if traced {
		// The traced run splits its time: half for the traced window, an
		// untraced reference window of an eighth before and after it (same
		// deployment; around it, so host drift cancels), the rest for the
		// open-loop curve and the ladder.
		ref, window = window/8, window/2
		closedLoop(ctx, d.cl, closed, ref, true, false)
		res.UntracedTput = summarise(closed, ref, time.Second).Throughput / 2
	}
	b0, err := readBoundary(d)
	if err != nil {
		return nil, err
	}
	closedLoop(ctx, d.cl, closed, window, true, traced)
	b1, err := readBoundary(d)
	if err != nil {
		return nil, err
	}
	res.Loop = summarise(closed, window, time.Second)
	res.Counts = diffBoundary(b0, b1, res.Loop.Ops, d)

	if traced {
		res.Classes = summariseClasses(closed)
		spans := collectSpans(closed)
		closedLoop(ctx, d.cl, closed, ref, true, false)
		res.UntracedTput += summarise(closed, ref, time.Second).Throughput / 2
		res.TraceOverhead = 1 - res.Loop.Throughput/res.UntracedTput
		if err := writeJSON(filepath.Join(p.out, "trace_"+w.name+".json"), spans); err != nil {
			return nil, err
		}
		if w.batch == 1 {
			each := max(window/4, time.Second)
			for _, rate := range openRates {
				res.Open = append(res.Open, openLoop(ctx, d.cl, cs[inFlight:], rate, each))
			}
		}
	}
	res.noteCallers(cs)
	res.note(verifyConvergence(ctx, d.cl, cs, w))
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%s: interrupted or past its deadline: %w", w.name, err)
	}
	d.stop() // free the cores before the in-process ladder and the canary
	if live := d.alive(); len(live) > 0 {
		res.note(0, 1, fmt.Errorf("node processes survived teardown: %v", live))
	}
	if traced {
		if res.Ladder, err = runLadder(window / 2); err != nil {
			return nil, err
		}
		if w.batch == 1 {
			// Top of the ladder: what the in-process session rung does not
			// explain of the deployment's own single-op hit latency.
			for _, r := range res.Ladder {
				if r.Name == "cluster.session.get_hit_us" {
					v := res.Classes["get_hit"].P50us - r.Value
					res.ResidualUs = &v
				}
			}
		}
	}
	res.SpinMops[1] = spinCanary(canaryTime)
	return res, nil
}

func summariseClasses(cs []*caller) map[string]classSummary {
	out := map[string]classSummary{}
	for k, name := range classNames {
		var h hist
		for _, c := range cs {
			h.merge(&c.classLat[k])
		}
		out[name] = classSummary{float64(h.quantile(0.50)) / 1e3, float64(h.quantile(0.99)) / 1e3, h.n}
	}
	return out
}

func collectSpans(cs []*caller) []span {
	var all []span
	for _, c := range cs {
		all = append(all, c.spans...)
	}
	return all
}

// openLoop offers rate ops/s of single-op calls for window, on a schedule
// that does not wait for replies: a pacer releases due times, a pool of
// workers (each its own session with its own stream) executes them.
func openLoop(ctx context.Context, cl *cluster.Client, workers []*caller, rate float64, window time.Duration) openPoint {
	total := int(rate * window.Seconds())
	due := make(chan time.Time, total) // sized to the whole schedule: the pacer never blocks on a slow system
	start := time.Now()
	var wg sync.WaitGroup
	lateMax := make([]time.Duration, len(workers))
	for i, c := range workers {
		c.recs = c.recs[:0]
		wg.Add(1)
		go func(i int, c *caller) {
			defer wg.Done()
			for at := range due {
				t0 := time.Now()
				lateMax[i] = max(lateMax[i], t0.Sub(at))
				c.call(cl)
				t1 := time.Now()
				c.recs = append(c.recs, rec{end: int64(t1.Sub(start)), lat: int64(t1.Sub(at)), ops: 1})
			}
		}(i, c)
	}
	gap := time.Duration(float64(time.Second) / rate)
	sent := 0
	for next := start; sent < total && ctx.Err() == nil; {
		for now := time.Now(); sent < total && !next.After(now); next = next.Add(gap) {
			due <- next
			sent++
		}
		time.Sleep(100 * time.Microsecond)
	}
	backlog := len(due)
	close(due)
	wg.Wait()
	st := summarise(workers, window, 2*time.Second)
	pt := openPoint{RateOps: rate, Seconds: window.Seconds(), Sent: sent, P50us: st.P50us, P99us: st.P99us, Backlog: backlog}
	for _, l := range lateMax {
		pt.LateMaxMs = max(pt.LateMaxMs, float64(l)/1e6)
	}
	return pt
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
