package trace

import (
	"slices"
	"testing"

	"transientbd/internal/simnet"
)

// skewFig4Trace returns the Fig 4 trace with every message *sent by*
// mysql (its returns) shifted back by the given amount — the signature
// of a mysql clock that trails the rest of the cluster.
func skewFig4Trace(skew simnet.Duration) []Message {
	msgs := buildFig4Trace()
	for i := range msgs {
		if msgs[i].From == "mysql" {
			msgs[i].At -= skew
		}
	}
	return msgs
}

func TestRepairSkewCleanTraceUntouched(t *testing.T) {
	msgs := buildFig4Trace()
	out, rep := RepairSkew(msgs)
	if rep.Repaired() || rep.Violations != 0 || rep.Shifted != 0 {
		t.Fatalf("clean trace reported skew: %+v", rep)
	}
	for i := range msgs {
		if out[i] != msgs[i] {
			t.Fatalf("message %d changed on a clean trace", i)
		}
	}
}

func TestRepairSkewRestoresCausalOrder(t *testing.T) {
	// 5ms of skew makes both mysql returns precede their calls (true
	// residences are 2ms).
	msgs := skewFig4Trace(5 * ms)
	if _, err := Assemble(msgs); err == nil {
		t.Fatal("skewed trace should fail strict assembly")
	}
	repaired, rep := RepairSkew(msgs)
	if !rep.Repaired() {
		t.Fatal("no repair applied")
	}
	if rep.Violations == 0 {
		t.Error("violations not counted")
	}
	// The estimate is the skew minus the minimum true residence (2ms):
	// at least 3ms, never more than the injected 5ms.
	off := rep.Offsets["mysql"]
	if off < 3*ms || off > 5*ms {
		t.Errorf("mysql offset = %v, want within [3ms, 5ms]", off)
	}
	if rep.Shifted != 2 {
		t.Errorf("shifted %d messages, want mysql's 2 returns", rep.Shifted)
	}
	visits, err := Assemble(repaired)
	if err != nil {
		t.Fatalf("repaired trace fails strict assembly: %v", err)
	}
	if len(visits) != 4 {
		t.Fatalf("visits = %d, want 4", len(visits))
	}
	for _, v := range visits {
		if v.Depart < v.Arrive {
			t.Errorf("causal order not restored: %+v", v)
		}
	}
}

// A skewed middle tier trips the child-call constraint: tomcat's call to
// mysql appears to precede apache's call to tomcat.
func TestRepairSkewMiddleTierViaParentConstraint(t *testing.T) {
	msgs := buildFig4Trace()
	for i := range msgs {
		if msgs[i].From == "tomcat" {
			msgs[i].At -= 8 * ms
		}
	}
	repaired, rep := RepairSkew(msgs)
	if rep.Offsets["tomcat"] == 0 {
		t.Fatalf("tomcat skew not detected: %+v", rep)
	}
	if _, err := Assemble(repaired); err != nil {
		t.Fatalf("repaired trace fails assembly: %v", err)
	}
}

func TestRepairVisitSkew(t *testing.T) {
	base, err := Assemble(buildFig4Trace())
	if err != nil {
		t.Fatal(err)
	}
	// Shift the mysql visits 5ms back, as a skewed per-server collector
	// would record them: both mysql visits now start before the apache
	// entry visit arrives.
	visits := make([]Visit, len(base))
	copy(visits, base)
	for i := range visits {
		if visits[i].Server == "mysql" {
			visits[i].Arrive -= 5 * ms
			visits[i].Depart -= 5 * ms
		}
	}
	repaired := slices.Clone(visits)
	rep := RepairVisitSkew(repaired)
	if !rep.Repaired() || rep.Offsets["mysql"] <= 0 {
		t.Fatalf("mysql visit skew not repaired: %+v", rep)
	}
	if rep.Shifted != 2 {
		t.Errorf("shifted %d visits, want 2", rep.Shifted)
	}
	// Entry containment restored: every visit of txn 1 starts at or
	// after the entry visit's arrival.
	entryArrive := simnet.Time(0)
	for _, v := range repaired {
		if v.Arrive < entryArrive {
			t.Errorf("visit %+v still precedes the transaction entry", v)
		}
	}
	// Residences are skew-invariant and must survive the repair.
	for i := range repaired {
		if repaired[i].Residence() != visits[i].Residence() {
			t.Errorf("repair changed residence of visit %d", i)
		}
	}
	// Clean visits come back unchanged.
	if rep := RepairVisitSkew(base); rep.Repaired() || rep.Violations != 0 {
		t.Errorf("clean visits reported skew: %+v", rep)
	}
}

func TestRepairVisitSkewIgnoresUnknownTxn(t *testing.T) {
	visits := []Visit{
		{Server: "a", TxnID: 0, Arrive: 0, Depart: 10 * ms},
		{Server: "b", TxnID: 0, Arrive: 100 * ms, Depart: 101 * ms},
	}
	rep := RepairVisitSkew(visits)
	if rep.Repaired() || rep.Violations != 0 {
		t.Errorf("txn-less visits produced constraints: %+v", rep)
	}
}
