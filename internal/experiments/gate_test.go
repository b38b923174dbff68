package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// The fidelity gate in Prepare mirrors the store's strict/degraded
// convention: a failing clone either degrades to the ungated clone with a
// greppable warning, or — under StrictFidelity — aborts the run with the
// full report. A near-zero tolerance forces the failure deterministically
// (no attribute matches exactly; see fidelity.TestToleranceScale).

func TestFidelityGatePasses(t *testing.T) {
	var log bytes.Buffer
	pairs, err := PrepareContext(context.Background(), Options{
		Workloads:    []string{"crc32"},
		ProfileInsts: 300_000,
		Fidelity:     true,
		Log:          &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pairs[0].Clone == nil {
		t.Fatal("no clone generated")
	}
	if strings.Contains(log.String(), "DEGRADED") {
		t.Errorf("healthy clone degraded:\n%s", log.String())
	}
}

func TestFidelityGateDegrades(t *testing.T) {
	var log bytes.Buffer
	pairs, err := PrepareContext(context.Background(), Options{
		Workloads:         []string{"crc32"},
		ProfileInsts:      300_000,
		Fidelity:          true,
		FidelityTolerance: 1e-9,
		Log:               &log,
	})
	if err != nil {
		t.Fatalf("non-strict gate must degrade, not fail: %v", err)
	}
	if pairs[0].Clone == nil {
		t.Fatal("degraded run still needs a clone")
	}
	out := log.String()
	if !strings.Contains(out, "DEGRADED") {
		t.Errorf("degradation not logged:\n%s", out)
	}
	if !strings.Contains(out, "fidelity: FAIL") {
		t.Errorf("warning does not carry the greppable report:\n%s", out)
	}
}

func TestStrictFidelityAborts(t *testing.T) {
	var log bytes.Buffer
	_, err := PrepareContext(context.Background(), Options{
		Workloads:         []string{"crc32"},
		ProfileInsts:      300_000,
		StrictFidelity:    true,
		FidelityTolerance: 1e-9,
		Log:               &log,
	})
	if err == nil {
		t.Fatal("strict gate passed a clone that cannot meet the tolerances")
	}
	if !strings.Contains(err.Error(), "fidelity: FAIL") {
		t.Errorf("error does not carry the per-attribute report: %v", err)
	}
}
