package traceio

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

func TestVisitsRoundTrip(t *testing.T) {
	in := []trace.Visit{
		{Server: "mysql-1", Class: "q1", TxnID: 7, HopID: 3,
			Arrive: 1000, Depart: 2500, Downstream: 200},
		{Server: "apache", Class: "page", Arrive: 0, Depart: 10},
	}
	var buf bytes.Buffer
	if err := WriteVisits(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadVisits(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip %d visits, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("visit %d = %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestMessagesRoundTrip(t *testing.T) {
	in := []trace.Message{
		{At: 10, From: "client", To: "apache", Dir: trace.Call, Class: "page",
			Conn: 4, TxnID: 1, HopID: 2, ParentHop: 0, Bytes: 500},
		{At: 20, From: "apache", To: "client", Dir: trace.Return, Class: "page",
			Conn: 4, TxnID: 1, HopID: 2, Bytes: 2000},
	}
	var buf bytes.Buffer
	if err := WriteMessages(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, _, err := ReadMessagesOpts(&buf, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("round trip %d messages, want 2", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("message %d = %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestReadVisitsValidation(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"no server", `{"arrive_us":0,"depart_us":5}`},
		{"reversed", `{"server":"s","arrive_us":10,"depart_us":5}`},
		{"garbage", `{not json`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadVisits(strings.NewReader(tc.in)); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestReadMessagesValidation(t *testing.T) {
	bad := `{"at_us":1,"from":"a","to":"b","dir":"sideways"}`
	if _, _, err := ReadMessagesOpts(strings.NewReader(bad), StreamOptions{}); err == nil {
		t.Error("want error for bad direction")
	}
	if _, _, err := ReadMessagesOpts(strings.NewReader("{"), StreamOptions{}); err == nil {
		t.Error("want error for truncated json")
	}
}

func TestEmptyInputs(t *testing.T) {
	vs, err := ReadVisits(strings.NewReader(""))
	if err != nil || len(vs) != 0 {
		t.Errorf("empty visits: %v, %v", vs, err)
	}
	ms, _, err := ReadMessagesOpts(strings.NewReader(""), StreamOptions{})
	if err != nil || len(ms) != 0 {
		t.Errorf("empty messages: %v, %v", ms, err)
	}
	var buf bytes.Buffer
	if err := WriteVisits(&buf, nil); err != nil {
		t.Error(err)
	}
	if buf.Len() != 0 {
		t.Error("writing no visits produced output")
	}
}

// Property: any visit with sane timestamps survives a round trip.
func TestVisitsRoundTripProperty(t *testing.T) {
	f := func(serverTag uint8, arrive uint32, span uint16, down uint16) bool {
		v := trace.Visit{
			Server:     "s" + string(rune('a'+serverTag%26)),
			Class:      "c",
			Arrive:     simnet.Time(arrive),
			Depart:     simnet.Time(arrive) + simnet.Time(span),
			Downstream: simnet.Duration(down),
		}
		var buf bytes.Buffer
		if err := WriteVisits(&buf, []trace.Visit{v}); err != nil {
			return false
		}
		out, err := ReadVisits(&buf)
		if err != nil || len(out) != 1 {
			return false
		}
		return out[0] == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStreamVisitsBatches(t *testing.T) {
	visits := make([]trace.Visit, 25)
	for i := range visits {
		visits[i] = trace.Visit{
			Server: "s",
			Arrive: simnet.Time(i),
			Depart: simnet.Time(i + 3),
		}
	}
	var buf bytes.Buffer
	if err := WriteVisits(&buf, visits); err != nil {
		t.Fatal(err)
	}
	var sizes []int
	var streamed []trace.Visit
	_, err := StreamVisitsOpts(&buf, StreamOptions{BatchSize: 10}, func(batch []trace.Visit) error {
		sizes = append(sizes, len(batch))
		streamed = append(streamed, batch...) // copy: the batch is reused
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 25 visits at batch 10 → 10, 10, 5.
	if len(sizes) != 3 || sizes[0] != 10 || sizes[1] != 10 || sizes[2] != 5 {
		t.Fatalf("batch sizes = %v, want [10 10 5]", sizes)
	}
	if len(streamed) != len(visits) {
		t.Fatalf("streamed %d visits, want %d", len(streamed), len(visits))
	}
	for i := range visits {
		if streamed[i] != visits[i] {
			t.Fatalf("visit %d differs after streaming round trip", i)
		}
	}
}

func TestStreamVisitsCallbackError(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteVisits(&buf, []trace.Visit{
		{Server: "s", Arrive: 1, Depart: 2},
		{Server: "s", Arrive: 3, Depart: 4},
	}); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop")
	calls := 0
	_, err := StreamVisitsOpts(&buf, StreamOptions{BatchSize: 1}, func([]trace.Visit) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times after error, want 1", calls)
	}
}

func TestStreamVisitsRejectsMalformed(t *testing.T) {
	in := `{"server":"s","arrive_us":5,"depart_us":1}` + "\n"
	_, err := StreamVisitsOpts(strings.NewReader(in), StreamOptions{}, func([]trace.Visit) error { return nil })
	if err == nil {
		t.Fatal("want error for depart before arrive")
	}
}

const (
	visitLine1 = `{"server":"s","arrive_us":1,"depart_us":2}`
	visitLine2 = `{"server":"s","arrive_us":3,"depart_us":4}`
)

func collectOpts(t *testing.T, in string, opts StreamOptions) ([]trace.Visit, Stats, error) {
	t.Helper()
	var out []trace.Visit
	stats, err := StreamVisitsOpts(strings.NewReader(in), opts, func(batch []trace.Visit) error {
		out = append(out, batch...)
		return nil
	})
	return out, stats, err
}

// A complete final record with no trailing newline is valid JSONL and
// must decode under every policy.
func TestStreamVisitsFinalLineWithoutNewline(t *testing.T) {
	in := visitLine1 + "\n" + visitLine2 // no trailing \n
	for _, policy := range []Policy{Strict, Skip} {
		out, stats, err := collectOpts(t, in, StreamOptions{Policy: policy})
		if err != nil {
			t.Fatalf("policy %v: %v", policy, err)
		}
		if len(out) != 2 || stats.Decoded != 2 || stats.Skipped() != 0 {
			t.Errorf("policy %v: decoded %d visits, stats %+v", policy, len(out), stats)
		}
	}
}

// A final line cut off mid-record (a truncated capture file) fails strict
// mode and is counted, not fatal, in skip mode.
func TestStreamVisitsTruncatedFinalLine(t *testing.T) {
	in := visitLine1 + "\n" + `{"server":"s","arr` // truncated, no newline
	if _, _, err := collectOpts(t, in, StreamOptions{Policy: Strict}); err == nil {
		t.Error("strict: want error for truncated final line")
	}
	out, stats, err := collectOpts(t, in, StreamOptions{Policy: Skip})
	if err != nil {
		t.Fatalf("skip: %v", err)
	}
	if len(out) != 1 || stats.Malformed != 1 || stats.Decoded != 1 {
		t.Errorf("skip: visits %d, stats %+v", len(out), stats)
	}
}

// A garbage line mid-file must not poison the records after it under the
// Skip policy; Strict stops at it.
func TestStreamVisitsMidFileGarbage(t *testing.T) {
	in := visitLine1 + "\n" + "!!corrupt bytes{{" + "\n" + visitLine2 + "\n"
	if _, _, err := collectOpts(t, in, StreamOptions{Policy: Strict}); err == nil {
		t.Error("strict: want error for mid-file garbage")
	}
	out, stats, err := collectOpts(t, in, StreamOptions{Policy: Skip})
	if err != nil {
		t.Fatalf("skip: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("skip: decoded %d visits across garbage, want 2", len(out))
	}
	if stats.Lines != 3 || stats.Malformed != 1 || stats.Decoded != 2 {
		t.Errorf("skip: stats %+v", stats)
	}
	if len(stats.Errors) != 1 || stats.Errors[0].Line != 2 {
		t.Errorf("skip: errors %+v, want line 2 recorded", stats.Errors)
	}
}

// Decoded-but-invalid records (reversed timestamps, missing server) are
// quarantined separately from malformed lines.
func TestStreamVisitsInvalidRecordsCounted(t *testing.T) {
	in := visitLine1 + "\n" +
		`{"server":"s","arrive_us":9,"depart_us":1}` + "\n" +
		`{"arrive_us":1,"depart_us":2}` + "\n"
	out, stats, err := collectOpts(t, in, StreamOptions{Policy: Skip})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || stats.Invalid != 2 || stats.Malformed != 0 {
		t.Errorf("visits %d, stats %+v", len(out), stats)
	}
}

func TestReadMessagesOptsLenient(t *testing.T) {
	in := `{"at_us":1,"from":"a","to":"b","dir":"call","hop":1}` + "\n" +
		"corrupt\n" +
		`{"at_us":2,"from":"b","to":"a","dir":"sideways","hop":1}` + "\n" +
		`{"at_us":3,"from":"b","to":"a","dir":"return","hop":1}` + "\n"
	msgs, stats, err := ReadMessagesOpts(strings.NewReader(in), StreamOptions{Policy: Skip})
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 || stats.Malformed != 1 || stats.Invalid != 1 {
		t.Errorf("messages %d, stats %+v", len(msgs), stats)
	}
	// Strict still refuses the same input.
	if _, _, err := ReadMessagesOpts(strings.NewReader(in), StreamOptions{}); err == nil {
		t.Error("strict: want error")
	}
}
