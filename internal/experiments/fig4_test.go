package experiments

import (
	"testing"

	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// Two transactions tie at the longest eligible length: the sample must be
// the smaller TxnID every time, however the map happens to iterate.
func TestSampleTransactionBreaksTiesOnTxnID(t *testing.T) {
	txn := func(id int64, first string, arrive simnet.Time, n int) []trace.Visit {
		vs := make([]trace.Visit, n)
		for i := range vs {
			vs[i] = trace.Visit{Server: "tomcat-1", TxnID: id, Arrive: arrive + simnet.Time(i)}
		}
		vs[0].Server = first
		return vs
	}
	for range 64 {
		txns := map[int64][]trace.Visit{}
		for _, vs := range [][]trace.Visit{
			txn(9, "apache", 100, 6),
			txn(4, "apache", 100, 6),
			txn(7, "apache", 100, 6),
			txn(2, "apache", 100, 5),
			txn(1, "apache", 10, 9),    // before the window
			txn(3, "tomcat-1", 100, 9), // does not enter at apache
		} {
			txns[vs[0].TxnID] = vs
		}
		got := sampleTransaction(txns, 50)
		if got == nil {
			t.Fatal("no sample, want transaction 4")
		}
		if got[0].TxnID != 4 {
			t.Fatalf("sample is transaction %d (%d visits), want 4", got[0].TxnID, len(got))
		}
	}
}
