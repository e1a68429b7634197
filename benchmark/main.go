// Command benchmark is the repository's benchmark: it builds cmd/cckvs-node,
// runs a 3-node deployment of real OS processes on loopback and drives it over
// TCP through the public client surface, checking every result.
//
//	bash benchmark/run.sh --workload skew-batch.sc --seed 1 --seconds 20 --trace 0
//
// measures one workload once and prints, as the last line of standard output,
// one JSON object with the end-to-end metrics (--trace 1: the per-layer
// metrics). Without --workload it runs the whole suite: every workload,
// -reps times, interleaved; -selfcheck runs the suite twice and compares the
// two sets against the metrics' bounds. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// metricDef mirrors one entry of BENCHMARK.json; a test keeps the two equal.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: tolerated worsening, as a share of the parent's median
}

var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_p99_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

func (r *result) endToEndValues() map[string]float64 {
	return map[string]float64{
		"throughput_ops_s": r.Loop.Throughput,
		"lat_p50_us":       r.Loop.P50us,
		"lat_p99_us":       r.Loop.P99us,
		"setup_s":          r.Setup,
	}
}

// perLayer lists the per-layer metrics in BENCHMARK.json order: the ladder,
// the class spans, the boundary counts, the tracing overhead.
func perLayer() []metricDef {
	var ms []metricDef
	for _, d := range rungDefs {
		ms = append(ms, metricDef{d.name, rungUnit(d.name), "lower", 0})
	}
	for _, c := range classNames {
		ms = append(ms, metricDef{"class." + c + ".p50_us", "us", "lower", 0}, metricDef{"class." + c + ".p99_us", "us", "lower", 0})
	}
	return append(ms,
		metricDef{"node.hit_rate", "frac", "higher", 0},
		metricDef{"node.remote_frac", "1/op", "lower", 0},
		metricDef{"node.frozen_retries", "count", "lower", 0},
		metricDef{"node.cpu_us_per_op", "us/op", "lower", 0},
		metricDef{"node.ctxsw_per_op", "1/op", "lower", 0},
		metricDef{"node.rss_mb", "MB", "lower", 0},
		metricDef{"driver.cpu_us_per_op", "us/op", "lower", 0},
		metricDef{"wire.pkts_per_op", "1/op", "lower", 0},
		metricDef{"wire.bytes_per_op", "B/op", "lower", 0},
		metricDef{"host.idle_frac", "frac", "lower", 0},
		metricDef{"host.steal_frac", "frac", "lower", 0},
		metricDef{"trace_overhead_frac", "frac", "lower", 0},
	)
}

func (r *result) perLayerValues() map[string]float64 {
	vals := map[string]float64{"trace_overhead_frac": r.TraceOverhead}
	for _, g := range r.Ladder {
		vals[g.Name] = g.Value
	}
	for name, c := range r.Classes {
		vals["class."+name+".p50_us"], vals["class."+name+".p99_us"] = c.P50us, c.P99us
	}
	// The counts struct's JSON tags are the metric names.
	b, _ := json.Marshal(r.Counts) // a struct of float64 cannot fail to marshal
	_ = json.Unmarshal(b, &vals)
	return vals
}

// contractLine renders the driver's result line.
func contractLine(r *result) string {
	defs, vals := endToEnd, r.endToEndValues()
	if r.Traced {
		defs, vals = perLayer(), r.perLayerValues()
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]metric{}}
	for _, d := range defs {
		out.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	b, _ := json.Marshal(out) // plain numbers and strings
	return string(b)
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload  = flag.String("workload", "", "run this one workload once and print the result line (default: the whole suite)")
		seed      = flag.Uint64("seed", 1, "seed of the pre-generated op streams")
		seconds   = flag.Int("seconds", 20, "measured seconds per run")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer ladder, class spans, boundary counts, open-loop curve")
		reps      = flag.Int("reps", 3, "suite: repetitions per workload, interleaved")
		quick     = flag.Bool("quick", false, "suite: one 2-second repetition per workload (smoke test)")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice and compare the two sets against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *reps < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [--workload name] [--seed n] [--seconds n] [--trace 0|1] [-reps n] [-quick] [-selfcheck]")
		return 2
	}
	if *quick {
		*reps, *seconds = 1, 2
	}

	// SIGINT/SIGTERM cancel the run; every exit path below stops the nodes.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	p, err := findPaths()
	if err == nil {
		err = buildNode(p)
	}
	if err == nil {
		err = pinToOneCPU() // after the build, which may use every CPU
	}
	if err != nil {
		return fail(err)
	}

	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		res, err := runOnce(ctx, p, w, *seed, *seconds, *trace == 1)
		if err != nil {
			return fail(err)
		}
		printResult(res)
		file := "result_" + w.name + ".json"
		if res.Traced {
			file = "layers_" + w.name + ".json"
		}
		if err := writeJSON(filepath.Join(p.out, file), withFingerprint(p, res)); err != nil {
			return fail(err)
		}
		fmt.Println(contractLine(res))
		if res.Failed > 0 {
			return 1
		}
		return 0
	}
	return runSuite(ctx, p, *seed, *seconds, *reps, *trace == 1, *selfcheck)
}
