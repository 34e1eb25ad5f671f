package trace

import (
	"fmt"
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

func assemble(msgs []Message, opts AssembleOptions, lenient bool) ([]Visit, AssemblyReport, error) {
	type hop struct {
		call *Message
		ret  *Message
	}
	var rep AssemblyReport
	hops := make(map[int64]*hop, len(msgs)/2)
	var captureEnd simnet.Time
	for i := range msgs {
		m := &msgs[i]
		if m.At > captureEnd {
			captureEnd = m.At
		}
		h := hops[m.HopID]
		if h == nil {
			h = &hop{}
			hops[m.HopID] = h
		}
		switch m.Dir {
		case Call:
			if h.call != nil {
				if !lenient {
					return nil, rep, fmt.Errorf("trace: duplicate call for hop %d at server %q", m.HopID, m.To)
				}
				rep.DuplicateCalls++
				if m.At < h.call.At {
					h.call = m
				}
				continue
			}
			h.call = m
		case Return:
			if h.ret != nil {
				if !lenient {
					return nil, rep, fmt.Errorf("trace: duplicate return for hop %d from server %q", m.HopID, m.From)
				}
				rep.DuplicateReturns++
				if m.At < h.ret.At {
					h.ret = m
				}
				continue
			}
			h.ret = m
		default:
			if !lenient {
				return nil, rep, fmt.Errorf("trace: message with invalid direction %d (from %q to %q)", int(m.Dir), m.From, m.To)
			}
			rep.InvalidDirection++
		}
	}

	visits := make(map[int64]*Visit, len(hops))
	var complete []*hop
	for id, h := range hops {
		if h.call == nil {
			if h.ret == nil {
				continue // only invalid-direction messages carried this hop id
			}
			if !lenient {
				return nil, rep, fmt.Errorf("trace: return without call for hop %d from server %q", id, h.ret.From)
			}
			rep.OrphanReturns++
			continue
		}
		if h.ret == nil {
			// Unterminated: in flight at the capture boundary, or — past
			// the watchdog — a lost return message.
			if opts.InFlightTimeout > 0 && h.call.At+opts.InFlightTimeout <= captureEnd {
				rep.TimedOut++
			} else {
				rep.InFlight++
			}
			continue
		}
		if h.ret.At < h.call.At {
			if !lenient {
				return nil, rep, fmt.Errorf("trace: hop %d at server %q returns before it is called", id, h.call.To)
			}
			rep.NegativeSpans++
			continue
		}
		visits[id] = &Visit{
			Server: h.call.To,
			Class:  h.call.Class,
			TxnID:  h.call.TxnID,
			HopID:  h.call.HopID,
			Arrive: h.call.At,
			Depart: h.ret.At,
		}
		complete = append(complete, h)
	}

	// Charge each completed hop's span to its parent visit as downstream
	// wait. Calls are sequential within a visit, so spans never overlap.
	for _, h := range complete {
		if h.call.ParentHop == 0 {
			continue
		}
		parent, ok := visits[h.call.ParentHop]
		if !ok {
			continue // parent still in flight or quarantined; its visit is gone anyway
		}
		parent.Downstream += h.ret.At - h.call.At
	}

	out := make([]Visit, 0, len(visits))
	for _, v := range visits {
		out = append(out, *v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Arrive != out[j].Arrive {
			return out[i].Arrive < out[j].Arrive
		}
		return out[i].HopID < out[j].HopID
	})
	rep.Visits = len(out)
	return out, rep, nil
}

// PerServer groups visits by server name, preserving input order within
// each server.
func PerServer(visits []Visit) map[string][]Visit {
	out := make(map[string][]Visit)
	for _, v := range visits {
		out[v.Server] = append(out[v.Server], v)
	}
	return out
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
