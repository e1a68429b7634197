package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func parseCell(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.Fields(cell)[0], 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return v
}

func TestTableRender(t *testing.T) {
	tab := Table{ID: "x", Title: "demo", Columns: []string{"a", "bee"}}
	tab.AddRow("r1", 3.14159)
	tab.AddRow(7, "text")
	tab.Notes = append(tab.Notes, "a note")
	out := tab.Render()
	for _, want := range []string{"demo", "bee", "3.14", "r1", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{0: "0", 1234.6: "1235", 42.42: "42.4", 3.14159: "3.14"}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q want %q", in, got, want)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	tab := Fig1()
	if len(tab.Rows) == 0 {
		t.Fatal("empty table")
	}
	hottest := parseCell(t, tab.Rows[0][1])
	if hottest < 5.5 || hottest > 9.5 {
		t.Errorf("hottest server %.2fx avg, paper says >7x", hottest)
	}
	last := tab.Rows[len(tab.Rows)-1]
	if !strings.Contains(last[0], "imbalance") {
		t.Errorf("missing imbalance summary row")
	}
}

func TestFig3Shape(t *testing.T) {
	tab := Fig3()
	// Hit rates increase down the rows (larger cache) and right-to-left
	// (higher alpha) at fixed size.
	for i := 1; i < len(tab.Rows); i++ {
		for col := 1; col <= 3; col++ {
			if parseCell(t, tab.Rows[i][col]) < parseCell(t, tab.Rows[i-1][col]) {
				t.Errorf("row %d col %d: hit rate not monotone in cache size", i, col)
			}
		}
	}
	for _, row := range tab.Rows {
		if parseCell(t, row[1]) < parseCell(t, row[3]) {
			t.Errorf("alpha=1.01 must dominate alpha=0.90: %v", row)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	tab := Fig8()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// At alpha=0.99 (column 2): ccKVS > Uniform > Base > Base-EREW.
	uniform := parseCell(t, tab.Rows[0][2])
	erew := parseCell(t, tab.Rows[1][2])
	base := parseCell(t, tab.Rows[2][2])
	cckvs := parseCell(t, tab.Rows[3][2])
	if !(cckvs > uniform && uniform > base && base > erew) {
		t.Errorf("ordering wrong: ccKVS=%v Uniform=%v Base=%v EREW=%v", cckvs, uniform, base, erew)
	}
	if ratio := cckvs / base; ratio < 2.8 || ratio > 3.8 {
		t.Errorf("ccKVS/Base = %.2f, paper says ~3.2", ratio)
	}
}

func TestFig9Shape(t *testing.T) {
	tab := Fig9()
	for _, row := range tab.Rows {
		hits, misses := parseCell(t, row[1]), parseCell(t, row[2])
		total, uniform := parseCell(t, row[3]), parseCell(t, row[4])
		if hits+misses < total*0.99 || hits+misses > total*1.01 {
			t.Errorf("hits+misses != total: %v", row)
		}
		if misses < uniform*0.85 || misses > uniform*1.15 {
			t.Errorf("miss throughput should track Uniform: %v", row)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	tab := Fig10()
	prevSC, prevLin := 1e18, 1e18
	for _, row := range tab.Rows {
		sc, lin := parseCell(t, row[2]), parseCell(t, row[3])
		if sc > prevSC || lin > prevLin {
			t.Errorf("throughput must fall with write ratio: %v", row)
		}
		if sc < lin {
			t.Errorf("SC must dominate Lin: %v", row)
		}
		prevSC, prevLin = sc, lin
	}
	// At 5% writes ccKVS-Lin still beats Base.
	last := tab.Rows[len(tab.Rows)-1]
	if parseCell(t, last[3]) <= parseCell(t, last[4]) {
		t.Errorf("Lin@5%% must beat Base: %v", last)
	}
}

func TestFig11Shape(t *testing.T) {
	tab := Fig11()
	for _, row := range tab.Rows {
		total := 0.0
		for col := 2; col <= 6; col++ {
			total += parseCell(t, row[col])
		}
		if total < 99 || total > 101 {
			t.Errorf("shares must sum to 100%%: %v (got %.1f)", row, total)
		}
		if strings.Contains(row[0], "SC") && parseCell(t, row[4]) != 0 {
			t.Errorf("SC must have no invalidation traffic: %v", row)
		}
	}
}

func TestFig12Shape(t *testing.T) {
	tab := Fig12()
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		base, lin, sc := parseCell(t, row[2]), parseCell(t, row[3]), parseCell(t, row[4])
		if !(sc >= lin && lin > base) {
			t.Errorf("ordering must hold at every size: %v", row)
		}
	}
}

func TestFig13aShape(t *testing.T) {
	tab := Fig13a()
	for _, row := range tab.Rows {
		without, with := parseCell(t, row[1]), parseCell(t, row[2])
		if with <= without*0.99 {
			t.Errorf("coalescing must raise utilization: %v", row)
		}
	}
	// Small objects without coalescing are packet-rate bound.
	if !strings.Contains(tab.Rows[0][3], "packet") {
		t.Errorf("40B w/o coalescing should be packet-rate bound: %v", tab.Rows[0])
	}
}

func TestFig13bShape(t *testing.T) {
	tab := Fig13b()
	// 40B read-only row: ccKVS-SC > 2000 MRPS and > 2x Base.
	row := tab.Rows[0]
	base, sc := parseCell(t, row[2]), parseCell(t, row[4])
	if sc < 2000 {
		t.Errorf("coalesced ccKVS = %.0f MRPS, paper reports > 2000", sc)
	}
	if sc < 2*base {
		t.Errorf("coalesced ccKVS must stay > 2x Base: %v", row)
	}
}

func TestFig13cShape(t *testing.T) {
	tab := Fig13c(20_000)
	if len(tab.Rows) < 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	first, last := tab.Rows[0], tab.Rows[len(tab.Rows)-1]
	// Latency rises with load; everything stays well under 1ms.
	if parseCell(t, last[1]) < parseCell(t, first[1]) {
		t.Errorf("read-only avg latency must rise with load")
	}
	for _, row := range tab.Rows {
		for col := 1; col <= 6; col++ {
			if v := parseCell(t, row[col]); v <= 0 || v > 1000 {
				t.Errorf("latency %v out of range in %v", v, row)
			}
		}
	}
	// Lin p95 clearly above Lin avg at the highest load.
	if parseCell(t, last[6]) < parseCell(t, last[5])*1.2 {
		t.Errorf("Lin p95 should exceed avg at high load: %v", last)
	}
}

func TestFig14Shape(t *testing.T) {
	tab := Fig14()
	// Model at 9 nodes close to sim at 9 nodes (paper: within 2%).
	for _, row := range tab.Rows {
		if row[0] != "9" {
			continue
		}
		modelSC, simSC := parseCell(t, row[2]), parseCell(t, row[5])
		if diff := (modelSC - simSC) / simSC; diff > 0.1 || diff < -0.1 {
			t.Errorf("model/sim SC diverge at 9 nodes: %v vs %v", modelSC, simSC)
		}
	}
	// Uniform model grows monotonically.
	prev := 0.0
	for _, row := range tab.Rows {
		u := parseCell(t, row[1])
		if u <= prev {
			t.Errorf("Uniform model must grow with N")
		}
		prev = u
	}
}

func TestFig15Shape(t *testing.T) {
	tab := Fig15()
	prevSC := 1e18
	for _, row := range tab.Rows {
		sc, lin := parseCell(t, row[1]), parseCell(t, row[2])
		if sc <= lin {
			t.Errorf("SC break-even must exceed Lin: %v", row)
		}
		if sc > prevSC {
			t.Errorf("break-even must fall with N: %v", row)
		}
		prevSC = sc
		// Simulated values in the same ballpark as the model (within 2x).
		simSC := parseCell(t, row[3])
		if simSC < sc/2 || simSC > sc*2 {
			t.Errorf("sim SC break-even %v far from model %v", simSC, sc)
		}
	}
}

func TestVerificationTable(t *testing.T) {
	tab := Verification()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[5] != "verified" {
			t.Errorf("%v", row)
		}
	}
}

func TestAblationWriteSerialization(t *testing.T) {
	tab := AblationWriteSerialization()
	for _, row := range tab.Rows {
		dist := parseCell(t, row[1])
		seq := parseCell(t, row[2])
		prim := parseCell(t, row[3])
		if !(dist >= seq && seq >= prim) {
			t.Errorf("fully distributed must dominate sequencer must dominate primary: %v", row)
		}
	}
	// At 20% writes the primary is clearly the bottleneck.
	last := tab.Rows[len(tab.Rows)-1]
	if parseCell(t, last[3]) > parseCell(t, last[1])*0.7 {
		t.Errorf("primary should collapse under heavy hot writes: %v", last)
	}
}

func TestAblationCoalesceFactor(t *testing.T) {
	tab := AblationCoalesceFactor()
	first := parseCell(t, tab.Rows[0][1])
	last := parseCell(t, tab.Rows[len(tab.Rows)-1][1])
	if last <= first {
		t.Errorf("coalescing must help: %v -> %v", first, last)
	}
	// Monotone non-decreasing through the sweep.
	prev := 0.0
	for _, row := range tab.Rows {
		v := parseCell(t, row[1])
		if v < prev*0.999 {
			t.Errorf("throughput dipped in sweep: %v", tab.Rows)
		}
		prev = v
	}
}

func TestAblationCreditBatch(t *testing.T) {
	tab := AblationCreditBatch()
	first := parseCell(t, tab.Rows[0][1])              // fc share at batch=1
	last := parseCell(t, tab.Rows[len(tab.Rows)-1][1]) // fc share at batch=32
	if last >= first {
		t.Errorf("credit batching must shrink flow-control share: %v -> %v", first, last)
	}
	if last > 2 {
		t.Errorf("batched flow control should be negligible, got %.2f%%", last)
	}
}

func TestAblationCacheSize(t *testing.T) {
	tab := AblationCacheSize()
	prevHit := 0.0
	for _, row := range tab.Rows {
		hit := parseCell(t, row[1])
		if hit < prevHit {
			t.Errorf("hit rate must grow with cache size")
		}
		prevHit = hit
	}
}

func TestAllRegistryRuns(t *testing.T) {
	all := All()
	// fig13c is slow; covered by its own test above.
	delete(all, "fig13c")
	delete(all, "verify") // covered above
	for id, fn := range all {
		tab := fn()
		if tab.ID != id {
			t.Errorf("registry id %q renders table id %q", id, tab.ID)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: empty table", id)
		}
		if out := tab.Render(); len(out) == 0 {
			t.Errorf("%s: empty render", id)
		}
	}
}
