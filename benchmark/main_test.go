package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The traffic is part of the benchmark's definition: the first ops of the
// default seed and each workload's cacheable share are pinned, so a change to
// the sampler or the mix cannot slip in as a "performance" change.
func TestStreamsArePinned(t *testing.T) {
	want := map[string]struct {
		first   string  // caller 0, seed 1: node, then "key" or "key!" (put) per op
		hitFrac float64 // share of ops whose key is in the symmetric cache
	}{
		"skew-single.sc":       {"n2 3600 | n1 103 | n2 4388 | n2 263 | n0 6283 | n1 699", 0.60},
		"skew-batch.sc":        {"n2 3600 103 4388 263 6283 699", 0.60},
		"uniform-batch.sc":     {"n2 60519 51467 640 34165 26518 35838", 0.01},
		"skew-write-batch.lin": {"n2 3600 103! 4388 263! 6283! 699!", 0.60},
	}
	for _, w := range workloads {
		frames := genStream(w, 1, 0, streamLen)
		var parts []string
		for _, f := range frames[:6] {
			s := fmt.Sprintf("n%d", f.node)
			for _, o := range f.ops[:min(6, len(f.ops))] {
				s += " " + strconv.FormatUint(o.key(), 10)
				if o.isPut() {
					s += "!"
				}
			}
			parts = append(parts, s)
		}
		got := parts[0]
		if w.batch == 1 {
			got = strings.Join(parts, " | ")
		}
		if got != want[w.name].first {
			t.Errorf("%s: first ops = %q, pinned %q", w.name, got, want[w.name].first)
		}
		hits, puts, n := 0, 0, 0
		for _, f := range frames {
			for _, o := range f.ops {
				n++
				if o.key() < hotKeys {
					hits++
				}
				if o.isPut() {
					puts++
				}
			}
		}
		if frac := float64(hits) / float64(n); math.Abs(frac-want[w.name].hitFrac) > 0.01 {
			t.Errorf("%s: cacheable share %.4f, want about %.2f", w.name, frac, want[w.name].hitFrac)
		}
		if frac := float64(puts) / float64(n); math.Abs(frac-w.putFrac) > 0.005 {
			t.Errorf("%s: put share %.4f, want %.2f", w.name, frac, w.putFrac)
		}
		if again := genStream(w, 1, 0, streamLen); !reflect.DeepEqual(frames[:64], again[:64]) {
			t.Errorf("%s: the same seed gave different streams", w.name)
		}
		if other := genStream(w, 2, 0, streamLen); reflect.DeepEqual(frames[:64], other[:64]) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.name)
		}
	}
}

// BENCHMARK.json is written by hand; the names, units, directions and bounds
// the program emits must be exactly the ones it declares.
func TestManifestMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var m struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	var ws []struct{ Name, Why string }
	for _, w := range workloads {
		ws = append(ws, struct{ Name, Why string }{w.name, w.why})
	}
	if !reflect.DeepEqual(m.Workloads, ws) {
		t.Errorf("workloads differ:\n json %v\n code %v", m.Workloads, ws)
	}
	conv := func(ds []metricDef) (out []metric) {
		for _, d := range ds {
			out = append(out, metric{d.name, d.unit, d.better, d.bound})
		}
		return out
	}
	if want := conv(endToEnd); !reflect.DeepEqual(m.EndToEnd, want) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", m.EndToEnd, want)
	}
	if want := conv(perLayer()); !reflect.DeepEqual(m.PerLayer, want) {
		t.Errorf("per_layer differs:\n json %v\n code %v", m.PerLayer, want)
	}
}

func TestStampsAndHistogram(t *testing.T) {
	v := make([]byte, valueSize)
	putStamp(v, 77, 3, 12345)
	if wr, seq, ok := parseStamp(77, v); !ok || wr != 3 || seq != 12345 {
		t.Fatalf("stamp round trip: %d %d %v", wr, seq, ok)
	}
	if _, _, ok := parseStamp(78, v); ok {
		t.Fatal("a stamp for key 77 parsed as key 78")
	}
	for k := uint64(0); k < 1000; k++ {
		for j := range v {
			v[j] = byte(k) ^ byte(j)
		}
		if _, _, ok := parseStamp(k, v); ok || !populated(k, v) {
			t.Fatalf("populated value of key %d misread", k)
		}
	}
	var h hist
	for i := int64(1); i <= 100000; i++ {
		h.add(i * 100)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000 * 100
		if got := float64(h.quantile(q)); math.Abs(got-want) > 0.04*want {
			t.Errorf("hist q%.2f = %.0f, want within 4%% of %.0f", q, got, want)
		}
	}
}

func testPaths(t *testing.T) paths {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns cckvs-node processes")
	}
	p, err := findPaths()
	if err == nil {
		err = buildNode(p)
	}
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// A run that fails half-way must still leave no cckvs-node behind: here a
// node is killed under load, the run records failures, and after stop()
// every pid the deployment started is gone.
func TestFailedRunLeavesNoNodes(t *testing.T) {
	p := testPaths(t)
	w := workloads[1]
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d, err := deploy(ctx, p, w, "hygiene")
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	time.AfterFunc(300*time.Millisecond, func() { _ = syscall.Kill(d.pids[1], syscall.SIGKILL) })
	cs := newCallers(w, 1, inFlight)
	closedLoop(ctx, d.cl, cs, 2*time.Second, true, false)
	failed := 0
	for _, c := range cs {
		failed += c.failed
	}
	if failed == 0 {
		t.Error("a node died under load but no operation was counted as failed")
	}
	d.stop()
	if live := d.alive(); len(live) > 0 {
		t.Fatalf("node processes survived a failed run: %v", live)
	}
}

// The paths no deferred call can cover — a panic on any goroutine, SIGKILL —
// are covered by the kernel: the nodes die with the thread that started them.
// The helper below deploys, prints its node pids and panics.
func TestPanicLeavesNoNodes(t *testing.T) {
	if os.Getenv("BENCH_PANIC_HELPER") == "1" {
		p, err := findPaths()
		if err != nil {
			t.Fatal(err)
		}
		d, err := deploy(context.Background(), p, workloads[1], "panic")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Println("PIDS", d.pids[0], d.pids[1], d.pids[2])
		go panic("benchmark panic helper: dying with nodes running")
		select {}
	}
	testPaths(t)
	cmd := exec.Command(os.Args[0], "-test.run=^TestPanicLeavesNoNodes$")
	cmd.Env = append(os.Environ(), "BENCH_PANIC_HELPER=1")
	out, err := cmd.Output()
	if err == nil {
		t.Fatal("the helper was expected to die of its panic")
	}
	var pids []int
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "PIDS" {
			for _, s := range f[1:] {
				pid, _ := strconv.Atoi(s)
				pids = append(pids, pid)
			}
		}
	}
	if len(pids) != numNodes {
		t.Fatalf("helper printed no pids:\n%s", out)
	}
	// The nodes are orphans now, so init reaps them; wait for that.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		live := 0
		for _, pid := range pids {
			if syscall.Kill(pid, 0) == nil {
				live++
			}
		}
		if live == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of the panicked driver's nodes are still running: %v", live, pids)
		}
	}
}

// Smoke test of the whole suite (-quick): schema, zero failures, clean
// teardown. It checks no speed.
func TestQuickSuite(t *testing.T) {
	p := testPaths(t)
	set, err := runSet(context.Background(), p, 1, 2, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.results) != len(workloads) {
		t.Fatalf("%d results for %d workloads", len(set.results), len(workloads))
	}
	for _, r := range set.results {
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %s", r.Workload, r.Failed, r.Attempted, r.FirstErr)
		}
		var line struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(contractLine(r)), &line); err != nil {
			t.Fatal(err)
		}
		if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(endToEnd) {
			t.Fatalf("%s: result line misses keys: %s", r.Workload, contractLine(r))
		}
		for _, m := range endToEnd {
			got, ok := line.Metrics[m.name]
			if !ok || got.Value == nil || *got.Value <= 0 || got.Unit != m.unit {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", r.Workload, m.name, got, m.unit)
			}
		}
	}
}
