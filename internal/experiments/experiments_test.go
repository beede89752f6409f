package experiments

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

const testSeed = 20250706

func runQuick(t *testing.T, id string) Table {
	t.Helper()
	tab, err := Run(id, true, testSeed)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tab.ID != id || tab.Title == "" || tab.Claim == "" || tab.Notes == "" {
		t.Fatalf("%s: incomplete table metadata: %+v", id, tab)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s: no rows", id)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Headers) {
			t.Fatalf("%s: row width %d != header width %d (%v)", id, len(row), len(tab.Headers), row)
		}
	}
	checkQuickGolden(t, tab)
	return tab
}

// checkQuickGolden compares tab's rows with its lines in
// testdata/quick.golden, one "ID | cell | cell ..." line per row, so a
// failure names the figure that moved. `UPDATE=1 go test
// ./internal/experiments` rewrites them; do that only when a behaviour
// change is the point. Pinned on amd64 only: fused multiply-add changes
// low bits elsewhere.
func checkQuickGolden(t *testing.T, tab Table) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		return
	}
	path := filepath.Join("testdata", "quick.golden")
	update := os.Getenv("UPDATE") == "1"
	data, err := os.ReadFile(path)
	if err != nil && !(update && os.IsNotExist(err)) {
		t.Fatalf("missing golden file (regenerate with UPDATE=1): %v", err)
	}
	lines := map[string][]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if id, _, ok := strings.Cut(line, " | "); ok {
			lines[id] = append(lines[id], line)
		}
	}
	var got []string
	for _, row := range tab.Rows {
		got = append(got, tab.ID+" | "+strings.Join(row, " | "))
	}
	if !update {
		if want := lines[tab.ID]; !slices.Equal(got, want) {
			t.Fatalf("%s moved from %s:\n--- got\n%s\n--- want\n%s", tab.ID, path, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		return
	}
	lines[tab.ID] = got
	var out strings.Builder
	for _, id := range IDs() {
		for _, line := range lines[id] {
			out.WriteString(line + "\n")
		}
	}
	if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func cell(t *testing.T, tab Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not a number", tab.ID, row, col, tab.Rows[row][col])
	}
	return v
}

func TestIDsCompleteAndSorted(t *testing.T) {
	ids := IDs()
	if len(ids) != 28 {
		t.Fatalf("experiments = %d, want 28 (F1-F22 + A1-A6): %v", len(ids), ids)
	}
	if ids[0] != "F1" || ids[21] != "F22" || ids[22] != "A1" || ids[27] != "A6" {
		t.Fatalf("order: %v", ids)
	}
	if _, err := Run("F99", true, 1); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestF1GridMissesDip(t *testing.T) {
	tab := runQuick(t, "F1")
	// At 5 and 10 points, grid stays on the ~1.0ms plateau.
	for row := 0; row < 2; row++ {
		if got := cell(t, tab, row, 1); got < 0.6 {
			t.Fatalf("coarse grid found the dip (%v), should miss it", got)
		}
	}
	// Random's mean at budget 50 should be better than grid at 5.
	if !(cell(t, tab, 3, 2) < cell(t, tab, 0, 1)) {
		t.Fatal("random at 50 should beat grid at 5")
	}
}

func TestF2BOBeatsRandom(t *testing.T) {
	tab := runQuick(t, "F2")
	// At budget 20 and 40 BO should be at least as good as random.
	for _, row := range []int{1, 2} {
		boV, rdV := cell(t, tab, row, 1), cell(t, tab, row, 2)
		if boV > rdV*1.1 {
			t.Fatalf("budget row %d: bo %v worse than random %v", row, boV, rdV)
		}
	}
	// BO at budget 40 should have found the dip region.
	if cell(t, tab, 2, 1) > 0.5 {
		t.Fatalf("bo at 40 = %v, should find the dip", cell(t, tab, 2, 1))
	}
}

func TestF3RatioInBand(t *testing.T) {
	tab := runQuick(t, "F3")
	for i := range tab.Rows {
		ratio := cell(t, tab, i, 3)
		if ratio < 2.5 || ratio > 15 {
			t.Fatalf("%s ratio = %v, want the 4-10x shape", tab.Rows[i][0], ratio)
		}
	}
}

func TestF4ReductionShape(t *testing.T) {
	tab := runQuick(t, "F4")
	def := cell(t, tab, 0, 1)
	tuned := cell(t, tab, 1, 1)
	red := (def - tuned) / def
	if red < 0.4 {
		t.Fatalf("P95 reduction = %v, want >= 40%% (claim is 68%%)", red)
	}
}

func TestF5MidLengthscaleWins(t *testing.T) {
	tab := runQuick(t, "F5")
	// Rows: 0.01, 0.05, 0.2, 1, 5. One of the middle lengthscales should
	// have the lowest RMSE.
	bestRow, bestRMSE := -1, 1e18
	for i := range tab.Rows {
		if r := cell(t, tab, i, 1); r < bestRMSE {
			bestRow, bestRMSE = i, r
		}
	}
	if bestRow == 0 || bestRow == len(tab.Rows)-1 {
		t.Fatalf("extreme lengthscale won (row %d)", bestRow)
	}
}

func TestF6ModelBeatsRandom(t *testing.T) {
	tab := runQuick(t, "F6")
	for i := range tab.Rows {
		ei := cell(t, tab, i, 2)
		rd := cell(t, tab, i, 4)
		if ei > rd*1.5 {
			t.Fatalf("%s: EI regret %v much worse than random %v", tab.Rows[i][0], ei, rd)
		}
	}
}

func TestF7AllColumnsPresent(t *testing.T) {
	tab := runQuick(t, "F7")
	if len(tab.Rows) != 3 || len(tab.Headers) != 7 {
		t.Fatalf("shape: %dx%d", len(tab.Rows), len(tab.Headers))
	}
	// On the DBMS row, SMAC should beat pure random.
	smacV := cell(t, tab, 2, 2)
	randV := cell(t, tab, 2, 6)
	if smacV > randV*1.15 {
		t.Fatalf("smac %v should be competitive with random %v on the DBMS", smacV, randV)
	}
}

func TestF8TreesHandleCategoricals(t *testing.T) {
	tab := runQuick(t, "F8")
	oneHot := cell(t, tab, 0, 1)
	random := cell(t, tab, 3, 1)
	if oneHot > random*1.2 {
		t.Fatalf("one-hot BO %v should be competitive with random %v", oneHot, random)
	}
}

func TestF9ParallelSpeedsUp(t *testing.T) {
	tab := runQuick(t, "F9")
	if sp := cell(t, tab, 1, 3); sp < 3 {
		t.Fatalf("batch-4 speedup = %v, want ~4", sp)
	}
	if sp := cell(t, tab, 2, 3); sp < 5 {
		t.Fatalf("batch-8 speedup = %v, want ~8", sp)
	}
	// Quality at batch 8 within 2.5x of sequential.
	if cell(t, tab, 2, 1) > cell(t, tab, 0, 1)*2.5 {
		t.Fatal("batch quality collapsed")
	}
}

func TestF10ModelBasedMOOCompetitive(t *testing.T) {
	tab := runQuick(t, "F10")
	parego := cell(t, tab, 0, 2)
	nsga := cell(t, tab, 1, 2)
	random := cell(t, tab, 2, 2)
	best := parego
	if nsga > best {
		best = nsga
	}
	if best <= 0 {
		t.Fatal("model-based hypervolume should be positive")
	}
	if best < random*0.9 {
		t.Fatalf("model-based HV (%v/%v) should match or beat random (%v)", parego, nsga, random)
	}
}

func TestF11ConstraintEliminatesCrashes(t *testing.T) {
	tab := runQuick(t, "F11")
	unconstrained := cell(t, tab, 0, 2)
	constrained := cell(t, tab, 1, 2)
	if constrained > 0 {
		t.Fatalf("constrained run crashed %v times", constrained)
	}
	if unconstrained == 0 {
		t.Fatal("unconstrained run should hit the cliff sometimes")
	}
}

func TestF12ProjectionSampleEfficient(t *testing.T) {
	tab := runQuick(t, "F12")
	fullHit := cell(t, tab, 0, 2)
	projHit := cell(t, tab, 1, 2)
	if projHit > fullHit*1.5 {
		t.Fatalf("projection needs %v trials vs full %v — should be competitive or faster", projHit, fullHit)
	}
}

func TestF13SHScreensMore(t *testing.T) {
	tab := runQuick(t, "F13")
	shEvals := cell(t, tab, 0, 3)
	shCost := cell(t, tab, 0, 2)
	fxEvals := cell(t, tab, 2, 3)
	fxCost := cell(t, tab, 2, 2)
	// At roughly matched cost SH evaluates more configurations.
	if !(shEvals > fxEvals) {
		t.Fatalf("SH evals %v should exceed fixed-fidelity evals %v (costs %v vs %v)",
			shEvals, fxEvals, shCost, fxCost)
	}
}

func TestF14WarmStartHelps(t *testing.T) {
	tab := runQuick(t, "F14")
	cold := cell(t, tab, 0, 1)
	warm := cell(t, tab, 1, 1)
	if warm > cold*1.05 {
		t.Fatalf("warm start %v should not be worse than cold %v", warm, cold)
	}
}

func TestF15ImportanceRecovered(t *testing.T) {
	tab := runQuick(t, "F15")
	lassoOverlap := cell(t, tab, 0, 2)
	permOverlap := cell(t, tab, 1, 2)
	if lassoOverlap < 2 && permOverlap < 2 {
		t.Fatalf("rankers recovered %v/%v of 5 ground-truth knobs", lassoOverlap, permOverlap)
	}
	narrow := cell(t, tab, 2, 1)
	full := cell(t, tab, 3, 1)
	if narrow > full*2.5 {
		t.Fatalf("top-7 tuning %v much worse than full %v", narrow, full)
	}
}

func TestF16AbortSavesCost(t *testing.T) {
	tab := runQuick(t, "F16")
	fullCost := cell(t, tab, 0, 2)
	abortCost := cell(t, tab, 1, 2)
	if !(abortCost < fullCost) {
		t.Fatalf("abort cost %v should be below full cost %v", abortCost, fullCost)
	}
	if cell(t, tab, 1, 3) == 0 {
		t.Fatal("no trials were aborted")
	}
	// Same best found (random search with same seed stream).
	if cell(t, tab, 1, 1) > cell(t, tab, 0, 1)*1.3 {
		t.Fatal("abort degraded quality too much")
	}
}

func TestF17MitigationHelps(t *testing.T) {
	tab := runQuick(t, "F17")
	naive := cell(t, tab, 0, 1)
	tuna := cell(t, tab, 3, 1)
	duet := cell(t, tab, 2, 1)
	betterOfPaired := tuna
	if duet < betterOfPaired {
		betterOfPaired = duet
	}
	if betterOfPaired > naive*1.15 {
		t.Fatalf("paired scoring (%v) should beat naive (%v)", betterOfPaired, naive)
	}
}

func TestF18GuardrailsAndAdaptation(t *testing.T) {
	tab := runQuick(t, "F18")
	// The bandit with regime presets should have the lowest post-shift loss.
	banditPost := cell(t, tab, 2, 2)
	walkPost := cell(t, tab, 0, 2)
	if banditPost > walkPost*1.2 {
		t.Fatalf("bandit post-shift %v should beat random walk %v", banditPost, walkPost)
	}
}

func TestF19IdentificationQuality(t *testing.T) {
	tab := runQuick(t, "F19")
	if purity := cell(t, tab, 0, 1); purity < 0.7 {
		t.Fatalf("purity = %v", purity)
	}
	if acc := cell(t, tab, 1, 1); acc < 0.7 {
		t.Fatalf("lookup accuracy = %v", acc)
	}
	if delay := cell(t, tab, 2, 1); delay < 0 || delay > 15 {
		t.Fatalf("shift delay = %v", delay)
	}
}

func TestF20SyntheticTransfersMostOfOracle(t *testing.T) {
	tab := runQuick(t, "F20")
	def := cell(t, tab, 0, 1)
	synth := cell(t, tab, 1, 1)
	oracle := cell(t, tab, 2, 1)
	if !(synth < def) {
		t.Fatalf("synthetic-tuned %v should beat default %v", synth, def)
	}
	// Capture at least half of the oracle's improvement.
	if gain, oracleGain := def-synth, def-oracle; oracleGain > 0 && gain < 0.4*oracleGain {
		t.Fatalf("synthetic captured %v of oracle's %v improvement", gain, oracleGain)
	}
}

func TestA1LogWarpHelps(t *testing.T) {
	tab := runQuick(t, "A1")
	shipped, ablated := cell(t, tab, 0, 1), cell(t, tab, 1, 1)
	if shipped > ablated*1.1 {
		t.Fatalf("LogY (%v) should not be worse than raw targets (%v)", shipped, ablated)
	}
}

func TestA2StratifiedWarmupHelps(t *testing.T) {
	tab := runQuick(t, "A2")
	shipped, ablated := cell(t, tab, 0, 1), cell(t, tab, 1, 1)
	if shipped > ablated*1.25 {
		t.Fatalf("stratified warm-up (%v) should not be worse than tiny warm-up (%v)", shipped, ablated)
	}
}

func TestA3InterleavingHelps(t *testing.T) {
	tab := runQuick(t, "A3")
	shipped, ablated := cell(t, tab, 0, 1), cell(t, tab, 1, 1)
	if shipped > ablated*1.25 {
		t.Fatalf("interleaving (%v) should not be worse than pure exploitation (%v)", shipped, ablated)
	}
}

func TestA4OutlierRejectionHelps(t *testing.T) {
	tab := runQuick(t, "A4")
	shipped, ablated := cell(t, tab, 0, 1), cell(t, tab, 1, 1)
	if shipped > ablated*1.1 {
		t.Fatalf("MAD rejection error (%v) should not exceed unguarded error (%v)", shipped, ablated)
	}
}

func TestA5HedgingBeatsBarrier(t *testing.T) {
	tab := runQuick(t, "A5")
	barrier, hedged := cell(t, tab, 0, 1), cell(t, tab, 1, 1)
	if hedged > 0.5*barrier {
		t.Fatalf("hedged wall-clock (%v) should be well under the barrier's (%v)", hedged, barrier)
	}
	if wins := cell(t, tab, 1, 4); wins == 0 {
		t.Fatal("hedging never won a race")
	}
}

func TestA6TierLadderKeepsRegret(t *testing.T) {
	tab := runQuick(t, "A6")
	for i, row := range tab.Rows {
		if ratio := cell(t, tab, i, 4); ratio > 1.5 {
			t.Fatalf("%s: tiered/dense regret ratio %v exceeds 1.5", row[0], ratio)
		}
	}
}

func TestF21MultiTaskTransfers(t *testing.T) {
	tab := runQuick(t, "F21")
	multi := cell(t, tab, 0, 1)
	random := cell(t, tab, 2, 1)
	if multi > random*1.1 {
		t.Fatalf("multi-task GP (%v) should beat random (%v)", multi, random)
	}
}

func TestF22ManualHintsHelp(t *testing.T) {
	tab := runQuick(t, "F22")
	informed := cell(t, tab, 1, 1)
	cold := cell(t, tab, 0, 1)
	documented := cell(t, tab, 2, 1)
	defaults := cell(t, tab, 3, 1)
	if !(documented < defaults) {
		t.Fatalf("documented config %v should beat defaults %v", documented, defaults)
	}
	if informed > cold*1.5 {
		t.Fatalf("manual-informed tuning %v should be competitive with cold %v", informed, cold)
	}
}
