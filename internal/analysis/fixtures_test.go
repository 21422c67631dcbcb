package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// Each analyzer runs over its fixture package under testdata/src,
// asserting every seeded true positive fires, every sanctioned idiom
// stays silent, and the //vet:allow escape hatch suppresses exactly the
// annotated site (the want clauses live in the fixtures themselves).
func TestWallclockFixture(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), analysis.Wallclock, "wallclock")
}

func TestCommSafetyFixture(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), analysis.CommSafety, "commsafety")
}

func TestMapOrderFixture(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), analysis.MapOrder, "maporder")
}

func TestArenaEscapeFixture(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), analysis.ArenaEscape, "arenaescape")
}

func TestErrWrapFixture(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), analysis.ErrWrap, "errwrap")
}

// The interprocedural analyzers' fixtures include cross-package cases
// (collective/helper, commsafety/commhelper, arenaescape/sink): each
// seeds at least one violation invisible to per-function analysis.
func TestCollectiveFixture(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), analysis.Collective, "collective")
}

func TestClockChargeFixture(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), analysis.ClockCharge, "clockcharge")
}

// The deadcode fixture's root is its init; a _test.go caller in the
// fixture does not count, exactly as in the repository.
func TestDeadcodeFixture(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), analysis.Deadcode, "deadcode")
}
