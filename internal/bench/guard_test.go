package bench

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/datagen"
)

// guardNoiseFactor is how far below the committed baseline the re-measured
// throughput may fall before the guard trips. Wall-clock MB/s varies a lot
// across hosts and CI neighbors, so the band is deliberately generous: the
// guard is not a perf benchmark, it exists to catch a structural regression
// on the disabled-injection hot path — the fault hooks are supposed to cost
// one nil check, and a stray always-on injector or lock would cut
// throughput by far more than 60%.
const guardNoiseFactor = 0.4

// TestIngestBaselineGuard re-measures one cheap ingest configuration with
// fault injection disabled (the default: no injector, no read-fault hook)
// and asserts it stays within noise of the committed BENCH_ingest.json row.
// The data columns must reproduce exactly — generation is seeded — and,
// without the race detector, the throughput must clear guardNoiseFactor of
// the committed MB/s.
func TestIngestBaselineGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	raw, err := os.ReadFile("../../BENCH_ingest.json")
	if err != nil {
		t.Skipf("no committed baseline: %v", err)
	}
	var rep IngestReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("BENCH_ingest.json: %v", err)
	}
	var base *IngestRun
	for i := range rep.Ingest {
		r := &rep.Ingest[i]
		if r.Format == "wkt" && r.Ranks == 1 && r.ParseWorkers == 0 {
			base = r
			break
		}
	}
	if base == nil {
		t.Fatal("BENCH_ingest.json has no wkt/1-rank/serial ingest row")
	}

	// Best of three: GC and scheduler noise only ever slow a pass down.
	var best IngestRun
	for i := 0; i < 3; i++ {
		run, err := ingestOnce(Config{}, 1, datagen.EncodingWKT, 0)
		if err != nil {
			t.Fatal(err)
		}
		if run.MBPerSec > best.MBPerSec {
			best = run
		}
	}

	if best.Records != base.Records || best.BytesRead != base.BytesRead {
		t.Errorf("re-measured %d records / %d bytes, baseline %d / %d — the fixture drifted",
			best.Records, best.BytesRead, base.Records, base.BytesRead)
	}
	// The race detector slows ingest several-fold, so the wall-clock floor
	// holds only in an uninstrumented build; the fixture check above runs
	// either way.
	if raceEnabled {
		return
	}
	if floor := base.MBPerSec * guardNoiseFactor; best.MBPerSec < floor {
		t.Errorf("disabled-injection ingest ran at %.1f MB/s, floor %.1f (baseline %.1f): "+
			"the zero-cost fault-hook claim no longer holds",
			best.MBPerSec, floor, base.MBPerSec)
	}
}
