// Package trace is the passive network tracing substrate: the stand-in
// for Fujitsu SysViz (§II-C). Servers emit interaction messages (calls
// and returns between tiers) as they would appear on the wire; the
// package assembles them into per-server visit records carrying the
// arrival and departure timestamp of every request at every server —
// the only observable the detection method needs.
//
// Two assembly paths exist:
//
//   - Assemble uses ground-truth hop identifiers (the simulator knows the
//     truth) and is exact. The analysis pipeline uses it.
//   - Reconstruct is a black-box reconstructor in the spirit of SysViz: it
//     sees only (timestamp, from, to, direction) and re-pairs calls with
//     returns by FIFO matching per server pair. Its accuracy against the
//     ground truth reproduces the paper's ">99% reconstruction accuracy"
//     claim (§II-C) and is measured by experiments.Fig4.
//
// # Concurrency
//
// Message and Visit are immutable value types: once captured they are
// safe to read from any number of goroutines. Collector is single-writer
// — it is meant to be fed from the (single-threaded) simulation loop and
// has no internal locking; wrap it if multiple producers must share one.
// The free functions (Assemble, Reconstruct, PerServer, Filter,
// Transactions, CallGraph) are pure: they do not mutate their inputs and
// may run concurrently, even over the same slice. None of them starts
// a goroutine: grouping is a single serial pass, and the per-server
// analyses in internal/core are where the batch path fans out.
package trace

import (
	"cmp"
	"fmt"
	"strings"

	"transientbd/internal/simnet"
)

// Direction distinguishes request (call) messages from response (return)
// messages on the wire.
type Direction int

// Message directions.
const (
	Call Direction = iota + 1
	Return
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Call:
		return "call"
	case Return:
		return "return"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Message is one interaction message captured on the wire, as by a network
// tap or mirroring switch. TxnID, HopID and ParentHop are ground truth the
// simulator knows; the black-box reconstructor must not read them.
type Message struct {
	At   simnet.Time
	From string
	To   string
	Dir  Direction
	// Class is the request class (URL / query template). Observable on
	// the wire, so both assembly paths may use it.
	Class string
	// Conn identifies the TCP connection (stream) carrying the message —
	// wire-observable as the source/destination port pair. Synchronous
	// RPC pools keep at most one outstanding call per connection, which
	// is what lets a black-box tracer demultiplex concurrent same-class
	// calls. Zero means unknown.
	Conn int64
	// TxnID identifies the client transaction this message belongs to.
	TxnID int64
	// HopID identifies the call/return pair: a call and its matching
	// return share a HopID.
	HopID int64
	// ParentHop is the hop during whose service this call was issued
	// (0 for client-originated calls).
	ParentHop int64
	// Bytes is the message size on the wire, for network-traffic
	// accounting (Table I).
	Bytes int64
}

// Collector accumulates wire messages during a run.
type Collector struct {
	msgs    []Message
	nextHop int64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{}
}

// NextHopID allocates a unique hop identifier.
func (c *Collector) NextHopID() int64 {
	c.nextHop++
	return c.nextHop
}

// Record appends a message.
func (c *Collector) Record(m Message) {
	c.msgs = append(c.msgs, m)
}

// Messages returns the captured messages in capture order. The returned
// slice is a copy.
func (c *Collector) Messages() []Message {
	out := make([]Message, len(c.msgs))
	copy(out, c.msgs)
	return out
}

// Len returns the number of captured messages.
func (c *Collector) Len() int { return len(c.msgs) }

// Visit is one request's residence at one server: from the arrival of the
// call message to the departure of the return message. DownstreamWait is
// the portion of that span spent blocked on calls to downstream tiers, so
// IntraNodeDelay — the paper's service-time observable (Fig 4's small
// boxes) — is Depart - Arrive - DownstreamWait.
type Visit struct {
	Server     string
	Class      string
	TxnID      int64
	HopID      int64
	Arrive     simnet.Time
	Depart     simnet.Time
	Downstream simnet.Duration
}

// Residence returns the total time the request spent at the server.
func (v Visit) Residence() simnet.Duration {
	return v.Depart - v.Arrive
}

// IntraNodeDelay returns the residence time minus time blocked on
// downstream tiers: queueing plus local service at this server.
func (v Visit) IntraNodeDelay() simnet.Duration {
	d := v.Residence() - v.Downstream
	if d < 0 {
		d = 0
	}
	return d
}

// compareArrive is the order assembly and reconstruction return visits
// in: by Arrive, then HopID.
func compareArrive(a, b Visit) int {
	if c := cmp.Compare(a.Arrive, b.Arrive); c != 0 {
		return c
	}
	return cmp.Compare(a.HopID, b.HopID)
}

// CompareDepart is the canonical completion order of visits, a
// comparator for slices.SortFunc: by Depart, then Server, Arrive,
// Class, TxnID, HopID and Downstream. It is a total order on Visit (0
// only for identical values), so a stable sort, an unstable one and a
// merge of sorted runs all agree. It is the order of a per-host
// completion log (ntiersim -order depart) and of the merge head's
// releases, so an N-agent run observes records exactly as one feed
// would.
func CompareDepart(a, b Visit) int {
	if c := cmp.Compare(a.Depart, b.Depart); c != 0 {
		return c
	}
	if c := strings.Compare(a.Server, b.Server); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Arrive, b.Arrive); c != 0 {
		return c
	}
	if c := strings.Compare(a.Class, b.Class); c != 0 {
		return c
	}
	if c := cmp.Compare(a.TxnID, b.TxnID); c != 0 {
		return c
	}
	if c := cmp.Compare(a.HopID, b.HopID); c != 0 {
		return c
	}
	return cmp.Compare(a.Downstream, b.Downstream)
}
