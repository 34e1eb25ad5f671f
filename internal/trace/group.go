package trace

import "slices"

// groupChunk is the most visits a server's first chunk grows to by plain
// append, and the size of every chunk after it. A full chunk is never
// regrown, so a visit is copied once into its chunk and once into its
// server's final slice, whatever the server's share of the trace.
const groupChunk = 8192

// Grouper groups visits by server name, one at a time, preserving input
// order within each server. The zero value is ready to use; a Grouper is
// not safe for concurrent use.
type Grouper struct {
	groups map[string]*chunks
}

// chunks holds one server's visits: full chunks, then the one filling.
type chunks struct {
	full [][]Visit
	last []Visit
}

// Add appends v to its server's group.
func (g *Grouper) Add(v Visit) {
	c := g.groups[v.Server]
	if c == nil {
		if g.groups == nil {
			g.groups = make(map[string]*chunks)
		}
		c = new(chunks)
		g.groups[v.Server] = c
	}
	if len(c.last) == groupChunk {
		c.full = append(c.full, c.last)
		c.last = make([]Visit, 0, groupChunk)
	}
	c.last = append(c.last, v)
}

// Groups returns each server's visits in input order, each in one slice
// whose capacity is its length, and empties the Grouper. A server that
// never filled its first chunk gets that chunk, uncopied.
func (g *Grouper) Groups() map[string][]Visit {
	out := make(map[string][]Visit, len(g.groups))
	for name, c := range g.groups {
		out[name] = slices.Clip(c.last)
		if len(c.full) > 0 {
			all := make([]Visit, 0, len(c.full)*groupChunk+len(c.last))
			for i, full := range c.full {
				all = append(all, full...)
				c.full[i] = nil // freed as copied: held to the end, every visit would be live twice
			}
			out[name] = append(all, c.last...)
		}
	}
	g.groups = nil
	return out
}

// PerServer groups visits by server name, preserving input order within
// each server.
func PerServer(visits []Visit) map[string][]Visit {
	var g Grouper
	for _, v := range visits {
		g.Add(v)
	}
	return g.Groups()
}
