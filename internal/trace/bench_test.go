package trace

import (
	"cmp"
	"slices"
	"testing"

	"transientbd/internal/simnet"
)

// benchCapture is a deterministic synthetic wire capture: n overlapping
// copies of the Fig 4 transaction (nested calls linked by ParentHop),
// started 300 µs apart with a few microseconds of jitter, in capture
// order. The capture stops 10 ms before the last message, so the last
// transactions are still in flight. With dups, every 64th message is
// captured a second time, 1 µs late.
func benchCapture(n int, dups bool) []Message {
	tmpl := buildFig4Trace()
	hops := int64(len(tmpl) / 2)
	var msgs []Message
	for i := range n {
		base := simnet.Time(i)*300*simnet.Microsecond + simnet.Time(i*7%11)*simnet.Microsecond
		for _, m := range tmpl {
			m.At += base
			m.TxnID = int64(i) + 1
			m.HopID += int64(i) * hops
			if m.ParentHop != 0 {
				m.ParentHop += int64(i) * hops
			}
			msgs = append(msgs, m)
		}
	}
	slices.SortStableFunc(msgs, func(a, b Message) int { return cmp.Compare(a.At, b.At) })
	end := msgs[len(msgs)-1].At - 10*ms
	msgs = slices.DeleteFunc(msgs, func(m Message) bool { return m.At > end })
	if dups {
		for i := 0; i < len(msgs); i += 64 {
			dup := msgs[i]
			dup.At++
			msgs = append(msgs, dup)
		}
	}
	return msgs
}

const benchTxns = 20000

func BenchmarkAssemble(b *testing.B) {
	msgs := benchCapture(benchTxns, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assemble(msgs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssembleLenient(b *testing.B) {
	msgs := benchCapture(benchTxns, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AssembleLenient(msgs, AssembleOptions{InFlightTimeout: 5 * ms})
	}
}

func BenchmarkRepairSkew(b *testing.B) {
	msgs := benchCapture(benchTxns, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RepairSkew(msgs)
	}
}

// BenchmarkCallGraph times CallGraphBuilder over the assembled synthetic
// capture in completion order, a fresh builder per pass as one analysis
// uses it.
func BenchmarkCallGraph(b *testing.B) {
	visits, err := Assemble(benchCapture(benchTxns, false))
	if err != nil {
		b.Fatal(err)
	}
	slices.SortFunc(visits, CompareDepart)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var g CallGraphBuilder
		for _, v := range visits {
			g.Add(v)
		}
		benchGraph = g.Graph()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(visits)), "ns/record")
}

var benchGraph map[string][]string
