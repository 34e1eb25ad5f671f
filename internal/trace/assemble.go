package trace

import (
	"fmt"
	"slices"
	"sort"

	"transientbd/internal/simnet"
)

// AssembleOptions tunes lenient assembly.
type AssembleOptions struct {
	// InFlightTimeout is the watchdog for unterminated hops: a call with
	// no captured return whose age at capture end exceeds the timeout is
	// presumed to have lost its return message (TimedOut), not to be
	// legitimately in flight at the capture boundary (InFlight). Both are
	// quarantined; the distinction only affects the report. 0 disables
	// the watchdog (everything unterminated counts as in flight).
	InFlightTimeout simnet.Duration
}

// AssemblyReport counts what lenient assembly produced and quarantined.
type AssemblyReport struct {
	// Visits is the number of visit records produced.
	Visits int
	// OrphanReturns counts returns with no captured call.
	OrphanReturns int
	// DuplicateCalls and DuplicateReturns count extra messages for a hop
	// that already had one (retransmissions, duplicated capture); the
	// earliest-stamped message wins.
	DuplicateCalls   int
	DuplicateReturns int
	// InvalidDirection counts messages that are neither call nor return.
	InvalidDirection int
	// NegativeSpans counts hops whose return precedes their call even
	// after any upstream skew repair; their visits are quarantined.
	NegativeSpans int
	// InFlight counts calls unterminated at capture end (within the
	// watchdog); TimedOut counts those older than InFlightTimeout.
	InFlight int
	TimedOut int
}

// Quarantined is the total number of hops that produced no visit.
func (r AssemblyReport) Quarantined() int {
	return r.OrphanReturns + r.DuplicateCalls + r.DuplicateReturns +
		r.InvalidDirection + r.NegativeSpans + r.InFlight + r.TimedOut
}

// Assemble pairs call and return messages by ground-truth HopID and builds
// the per-server visit list, attributing downstream wait time to parent
// visits via ParentHop. Messages may be supplied in any order.
//
// Unmatched calls (no return captured before the end of the run) are
// dropped: the request was still in flight when tracing stopped, so its
// departure timestamp is unknown — the same truncation a real packet trace
// has at the capture boundary. Any other anomaly (orphan return, duplicate
// message, return before call) is an error; use AssembleLenient to
// quarantine anomalies instead.
func Assemble(msgs []Message) ([]Visit, error) {
	visits, _, err := assemble(msgs, AssembleOptions{}, false)
	return visits, err
}

// AssembleLenient is Assemble for degraded captures: instead of failing
// on the first anomaly it quarantines the affected hop, counts it in the
// report, and assembles everything else. Duplicate calls or returns keep
// the earliest-stamped copy, so a retransmitted or doubly-captured
// message does not lose the hop.
func AssembleLenient(msgs []Message, opts AssembleOptions) ([]Visit, AssemblyReport) {
	visits, rep, _ := assemble(msgs, opts, true)
	return visits, rep
}

// hopPair holds the indices into the capture of one hop's call and
// return message, -1 where none was captured.
type hopPair struct{ call, ret int32 }

// pairHops is the capture's one HopID index: slot maps each HopID to its
// entry in pairs, which lists hops in first-sight order. A duplicate call
// or return keeps the earliest-stamped copy (the first on a tie). strict
// turns a duplicate or an invalid direction into an error; otherwise
// they are counted in the report. Message indices are int32: a capture
// holds fewer than 2³¹ messages.
func pairHops(msgs []Message, strict bool) (slot map[int64]int32, pairs []hopPair, rep AssemblyReport, err error) {
	slot = make(map[int64]int32, len(msgs)/2)
	pairs = make([]hopPair, 0, len(msgs)/2)
	for i := range msgs {
		m := &msgs[i]
		if m.Dir != Call && m.Dir != Return {
			if strict {
				return nil, nil, rep, fmt.Errorf("trace: message with invalid direction %d (from %q to %q)", int(m.Dir), m.From, m.To)
			}
			rep.InvalidDirection++
			continue
		}
		s, ok := slot[m.HopID]
		if !ok {
			s = int32(len(pairs))
			slot[m.HopID] = s
			pairs = append(pairs, hopPair{-1, -1})
		}
		p := &pairs[s]
		cur, dups := &p.call, &rep.DuplicateCalls
		if m.Dir == Return {
			cur, dups = &p.ret, &rep.DuplicateReturns
		}
		if *cur >= 0 {
			switch {
			case strict && m.Dir == Call:
				return nil, nil, rep, fmt.Errorf("trace: duplicate call for hop %d at server %q", m.HopID, m.To)
			case strict:
				return nil, nil, rep, fmt.Errorf("trace: duplicate return for hop %d from server %q", m.HopID, m.From)
			}
			*dups++
			if m.At >= msgs[*cur].At {
				continue
			}
		}
		*cur = int32(i)
	}
	return slot, pairs, rep, nil
}

func assemble(msgs []Message, opts AssembleOptions, lenient bool) ([]Visit, AssemblyReport, error) {
	slot, pairs, rep, err := pairHops(msgs, !lenient)
	if err != nil {
		return nil, rep, err
	}
	var captureEnd simnet.Time
	for i := range msgs {
		captureEnd = max(captureEnd, msgs[i].At)
	}

	// Charge each completed hop's span to its parent as downstream wait.
	// Calls are sequential within a visit, so spans never overlap; a
	// parent still in flight or quarantined emits no visit anyway.
	downstream := make([]simnet.Duration, len(pairs))
	for _, p := range pairs {
		if p.call < 0 || p.ret < 0 {
			continue
		}
		call, ret := &msgs[p.call], &msgs[p.ret]
		if call.ParentHop == 0 || ret.At < call.At {
			continue
		}
		if ps, ok := slot[call.ParentHop]; ok {
			downstream[ps] += ret.At - call.At
		}
	}

	out := make([]Visit, 0, len(pairs))
	for s, p := range pairs {
		if p.call < 0 {
			ret := &msgs[p.ret]
			if !lenient {
				return nil, rep, fmt.Errorf("trace: return without call for hop %d from server %q", ret.HopID, ret.From)
			}
			rep.OrphanReturns++
			continue
		}
		call := &msgs[p.call]
		if p.ret < 0 {
			// Unterminated: in flight at the capture boundary, or — past
			// the watchdog — a lost return message.
			if opts.InFlightTimeout > 0 && call.At+opts.InFlightTimeout <= captureEnd {
				rep.TimedOut++
			} else {
				rep.InFlight++
			}
			continue
		}
		ret := &msgs[p.ret]
		if ret.At < call.At {
			if !lenient {
				return nil, rep, fmt.Errorf("trace: hop %d at server %q returns before it is called", call.HopID, call.To)
			}
			rep.NegativeSpans++
			continue
		}
		out = append(out, Visit{
			Server:     call.To,
			Class:      call.Class,
			TxnID:      call.TxnID,
			HopID:      call.HopID,
			Arrive:     call.At,
			Depart:     ret.At,
			Downstream: downstream[s],
		})
	}
	slices.SortFunc(out, compareArrive)
	rep.Visits = len(out)
	return out, rep, nil
}

// Filter returns the visits at the named server.
func Filter(visits []Visit, server string) []Visit {
	var out []Visit
	for _, v := range visits {
		if v.Server == server {
			out = append(out, v)
		}
	}
	return out
}

// Transactions groups visits by transaction and returns them keyed by
// TxnID; within a transaction, visits are ordered by arrival.
func Transactions(visits []Visit) map[int64][]Visit {
	out := make(map[int64][]Visit)
	for _, v := range visits {
		out[v.TxnID] = append(out[v.TxnID], v)
	}
	for _, vs := range out {
		sort.Slice(vs, func(i, j int) bool { return vs[i].Arrive < vs[j].Arrive })
	}
	return out
}

// CallGraph derives the caller → callees map from the wire capture: every
// observed call edge except those originating at the client. This is the
// dependency input root-cause attribution needs, recovered from the same
// passive trace the analysis runs on.
func CallGraph(msgs []Message) map[string][]string {
	seen := make(map[string]map[string]bool)
	for _, m := range msgs {
		if m.Dir != Call || m.From == "client" {
			continue
		}
		if seen[m.From] == nil {
			seen[m.From] = make(map[string]bool)
		}
		seen[m.From][m.To] = true
	}
	out := make(map[string][]string, len(seen))
	for from, tos := range seen {
		for to := range tos {
			out[from] = append(out[from], to)
		}
		sort.Strings(out[from])
	}
	return out
}
