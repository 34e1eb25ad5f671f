package trace

// A Names table holds at most namesCap names of at most namesMaxLen bytes.
const (
	namesCap    = 1024
	namesMaxLen = 64
)

// Names interns server and class names for one decoder, so the records it
// builds share one string per distinct name. Past either bound a name is
// returned as a fresh string, so hostile input cannot grow the table.
// Make one with make(Names).
type Names map[string]string

// Intern returns b as a string, shared with every earlier call that
// passed the same bytes while the table had room.
func (t Names) Intern(b []byte) string {
	if s, ok := t[string(b)]; ok { // the conversion does not allocate
		return s
	}
	s := string(b)
	if len(t) < namesCap && len(s) <= namesMaxLen {
		t[s] = s
	}
	return s
}
