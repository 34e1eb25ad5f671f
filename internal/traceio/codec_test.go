package traceio

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// canonicalTrace is n visits as WriteVisits emits them, over six servers
// and a few dozen classes like the benchmark's trace.
func canonicalTrace(tb testing.TB, n int) []byte {
	tb.Helper()
	visits := make([]trace.Visit, n)
	for i := range visits {
		at := simnet.Time(1_000_000 + 97*i)
		visits[i] = trace.Visit{
			Server: []string{"apache", "tomcat-1", "tomcat-2", "cjdbc", "mysql-1", "mysql-2"}[i%6],
			Class:  "ViewStory-" + string(rune('a'+i%24)),
			TxnID:  int64(i / 6), HopID: int64(i),
			Arrive: at, Depart: at + simnet.Time(500+i%1000), Downstream: simnet.Duration(i % 300),
		}
	}
	var buf bytes.Buffer
	if err := WriteVisits(&buf, visits); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// decodeAllocBudget is the steady-state allocation budget of
// StreamVisitsOpts over canonical lines, in allocations per record.
const decodeAllocBudget = 0

func TestDecodeAllocBudget(t *testing.T) {
	const records = 20000
	data := canonicalTrace(t, records)
	// One long read, so per-read set-up (the bufio buffer, the batch, the
	// name table and its few dozen entries) is a vanishing share and the
	// integer division below pins the per-record cost alone.
	r := bytes.NewReader(nil)
	perRead := testing.AllocsPerRun(5, func() {
		r.Reset(data)
		stats, err := StreamVisitsOpts(r, StreamOptions{}, func([]trace.Visit) error { return nil })
		if err != nil || stats.Decoded != records {
			t.Fatalf("decoded %d of %d: %v", stats.Decoded, records, err)
		}
	})
	if perRecord := int(perRead) / records; perRecord > decodeAllocBudget {
		t.Fatalf("%.0f allocs per %d-record read = %d allocs/record, budget %d", perRead, records, perRecord, decodeAllocBudget)
	}
	if perRead > 100 {
		t.Fatalf("%.0f allocs per read: set-up should cost a few dozen, so records are allocating", perRead)
	}
}

func BenchmarkStreamVisits(b *testing.B) {
	data := canonicalTrace(b, 50000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	r := bytes.NewReader(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(data)
		if _, err := StreamVisitsOpts(r, StreamOptions{}, func([]trace.Visit) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// Lines in the canonical form — what the writers emit, give or take blanks
// and key order — and lines just off it, which only encoding/json judges.
var (
	canonicalVisits = append([]string{
		`{"server":"s","class":"c","txn":1,"hop":2,"arrive_us":1,"depart_us":2,"downstream_us":1}`,
		`{"server":"s","arrive_us":-9223372036854775808,"depart_us":9223372036854775807}`,
		`{"server":"s","arrive_us":-0,"depart_us":0}`,
		`{ "depart_us" : 2 ,	"arrive_us" : 1 , "server" : "s" }`,
		`{"server":"s","txn":12345678901234567,"hop":-12345678901234567,"arrive_us":1,"depart_us":2}`,
		`{"server":"s","txn":999999999999999999,"hop":-999999999999999999,"arrive_us":1,"depart_us":2}`,
		`{"server":"s","txn":9223372036854775807,"hop":-9223372036854775807,"arrive_us":1,"depart_us":2}`,
		`{"server":"s","txn":-9223372036854775808,"hop":1000000000000000000,"arrive_us":1,"depart_us":2}`,
	}, byteLines(true)...)
	canonicalMessage = `{"at_us":1,"from":"a","to":"b","dir":"call","class":"c","conn":1,"txn":2,"hop":3,"parent":4,"bytes":5}`
	offCanonical     = append([]string{
		`{"server":"a\"b\\c\u00e9","arrive_us":1,"depart_us":2}`,
		`{"Server":"s","ARRIVE_US":1,"depart_us":2}`,
		`{"server":"s","server":"t","arrive_us":1,"arrive_us":3,"depart_us":4}`,
		`{"server":null,"arrive_us":null,"depart_us":2}`,
		`{"server":"s","arrive_us":1.0,"depart_us":2}`,
		`{"server":"s","arrive_us":1,"depart_us":1e3}`,
		`{"server":"s","arrive_us":1,"depart_us":01}`,
		`{"server":"s","arrive_us":-,"depart_us":1}`,
		`{"server":"s","arrive_us":1,"depart_us":9223372036854775808}`,
		`{"server":"s","arrive_us":-9223372036854775809,"depart_us":1}`,
		`{"server":"s","arrive_us":1,"depart_us":99999999999999999999999999}`,
		`{"server":"s","txn":9223372036854775808,"arrive_us":1,"depart_us":2}`,
		`{"server":"s","txn":-9223372036854775809,"arrive_us":1,"depart_us":2}`,
		`{"server":"s","txn":10000000000000000000,"arrive_us":1,"depart_us":2}`,
		`{"server":"s","txn":-10000000000000000000,"arrive_us":1,"depart_us":2}`,
		`{"server":"s","txn":18446744073709551616,"arrive_us":1,"depart_us":2}`,
		`{"server":"s","txn":-18446744073709551617,"arrive_us":1,"depart_us":2}`,
		`{"server":"é","arrive_us":1,"depart_us":2}`,
		"{\"server\":\"a\x00b\",\"arrive_us\":1,\"depart_us\":2}",
		"{\"server\":\"a\x7fb\",\"arrive_us\":1,\"depart_us\":2}",
		"{\"server\":\"s\",\r\"arrive_us\":1,\n\"depart_us\":2}",
		`{}`, `{"a":1,}`, `{,"server":"s"}`, `{"server":"s",}`, `{"server":"s"}x`, `{"server":"s"} {}`,
		`{"server":{"a":[1]},"arrive_us":[1],"depart_us":2}`, `{"server":"s","extra":true}`,
		`{"server":5,"arrive_us":"1","depart_us":2}`, `[]`, `"server"`, `{"server":"s"`, `{"server":"s`, ` {"server":"s"}`,
	}, byteLines(false)...)
)

// byteLines returns a visit line with byte c inside its class value for
// every c that is (canonical) or is not printable ASCII other than '"' and
// '\'. Off the canonical form it adds a line with each of the 256 bytes
// inside a key, which takes the key out of the schema.
func byteLines(canonical bool) []string {
	var lines []string
	for c := range 256 {
		b, plain := string([]byte{byte(c)}), c >= 0x20 && c <= 0x7e && c != '"' && c != '\\'
		if plain == canonical {
			lines = append(lines, `{"server":"s","class":"a`+b+`z","arrive_us":1,"depart_us":2}`)
		}
		if !canonical {
			lines = append(lines, `{"server":"s","cl`+b+`ass":"c","arrive_us":1,"depart_us":2}`)
		}
	}
	return lines
}

// Whenever the fast path takes a line, encoding/json must take it too and
// produce the identical record. (Lines the fast path declines go through
// encoding/json in the decoder itself, so they are equal by construction.)
func fuzzFastVsJSON[T comparable](f *testing.F, fast func([]byte, interner) (T, bool)) {
	for _, s := range append(append([]string{canonicalMessage}, canonicalVisits...), offCanonical...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, ok := fast(line, make(interner))
		if !ok {
			return
		}
		var want T
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("fast path took %q, encoding/json refuses it: %v", line, err)
		}
		if got != want {
			t.Fatalf("%q: fast path %+v, encoding/json %+v", line, got, want)
		}
	})
}

func FuzzVisitFastVsJSON(f *testing.F)   { fuzzFastVsJSON(f, fastVisit) }
func FuzzMessageFastVsJSON(f *testing.F) { fuzzFastVsJSON(f, fastMessage) }

// The fast path must take what the writers emit and decline everything
// off the canonical form: a regression that sent every line to the
// fallback would pass each equality test and lose only the speed.
func TestFastPathTakesCanonicalLines(t *testing.T) {
	names := make(interner)
	for _, s := range canonicalVisits {
		if _, ok := fastVisit([]byte(s), names); !ok {
			t.Errorf("fast visit path declines %s", s)
		}
	}
	if _, ok := fastMessage([]byte(canonicalMessage), names); !ok {
		t.Errorf("fast message path declines %s", canonicalMessage)
	}
	for _, s := range offCanonical {
		_, visit := fastVisit([]byte(s), names)
		_, message := fastMessage([]byte(s), names)
		if visit || message {
			t.Errorf("fast path takes %q (visit %v, message %v)", s, visit, message)
		}
	}
}

// CRLF endings, blanks around a line and between its tokens, reordered
// keys and non-canonical spellings decode to the same visits whichever
// path a line takes.
func TestDecodeSameOnBothPaths(t *testing.T) {
	want := []trace.Visit{{Server: "s", Class: "c", TxnID: 7, HopID: 3, Arrive: 10, Depart: 25, Downstream: 2}}
	cases := map[string]string{
		"canonical":     `{"server":"s","class":"c","txn":7,"hop":3,"arrive_us":10,"depart_us":25,"downstream_us":2}` + "\n",
		"crlf":          `{"server":"s","class":"c","txn":7,"hop":3,"arrive_us":10,"depart_us":25,"downstream_us":2}` + "\r\n",
		"outer blanks":  " \t" + `{"server":"s","class":"c","txn":7,"hop":3,"arrive_us":10,"depart_us":25,"downstream_us":2}` + " \t\n",
		"inner blanks":  `{ "server" : "s", "class":	"c" ,"txn":7,"hop":3,"arrive_us":10,"depart_us":25,"downstream_us":2 }` + "\n",
		"reordered":     `{"downstream_us":2,"depart_us":25,"arrive_us":10,"hop":3,"txn":7,"class":"c","server":"s"}` + "\n",
		"no newline":    `{"server":"s","class":"c","txn":7,"hop":3,"arrive_us":10,"depart_us":25,"downstream_us":2}`,
		"escape":        `{"server":"\u0073","class":"c","txn":7,"hop":3,"arrive_us":10,"depart_us":25,"downstream_us":2}` + "\n",
		"folded key":    `{"SERVER":"s","class":"c","txn":7,"hop":3,"arrive_us":10,"depart_us":25,"downstream_us":2}` + "\n",
		"duplicate key": `{"server":"x","server":"s","class":"c","txn":7,"hop":3,"arrive_us":10,"depart_us":25,"downstream_us":2}` + "\n",
		"unknown key":   `{"server":"s","class":"c","txn":7,"hop":3,"arrive_us":10,"depart_us":25,"downstream_us":2,"note":[1,{}]}` + "\n",
		"null and zero": `{"server":"s","class":"c","txn":7,"hop":3,"arrive_us":10,"depart_us":25,"downstream_us":2,"hop":null}` + "\n",
	}
	for name, in := range cases {
		got, stats, err := ReadVisitsOpts(strings.NewReader(in), StreamOptions{})
		if err != nil || !reflect.DeepEqual(got, want) || stats.Decoded != 1 {
			t.Errorf("%s: got %+v, stats %+v, err %v", name, got, stats, err)
		}
	}
	// Every byte inside a string value and a key, and integers either side
	// of int64's limits, decode as encoding/json decodes them.
	for _, line := range append(slices.Clone(canonicalVisits), offCanonical...) {
		var rec visitRecord
		jerr := json.Unmarshal([]byte(line), &rec)
		if jerr != nil || rec.Server == "" || rec.DepartUS < rec.ArriveUS || strings.Contains(line, "\n") {
			continue // refused, or two lines to the reader
		}
		got, _, err := ReadVisitsOpts(strings.NewReader(line+"\n"), StreamOptions{})
		want := trace.Visit{Server: rec.Server, Class: rec.Class, TxnID: rec.TxnID, HopID: rec.HopID,
			Arrive: simnet.Time(rec.ArriveUS), Depart: simnet.Time(rec.DepartUS), Downstream: simnet.Duration(rec.DownstrUS)}
		if err != nil || len(got) != 1 || got[0] != want {
			t.Errorf("%q: got %+v, err %v; encoding/json reads %+v", line, got, err, want)
		}
	}
	// Lines only encoding/json judges keep its classification and text.
	_, err := ReadVisits(strings.NewReader(`{"server":"s","arrive_us":1.5,"depart_us":2}`))
	var rec visitRecord
	jerr := json.Unmarshal([]byte(`{"server":"s","arrive_us":1.5,"depart_us":2}`), &rec)
	if err == nil || jerr == nil || err.Error() != "traceio: line 1: decode visit: "+jerr.Error() {
		t.Errorf("float timestamp: err %v, encoding/json says %v", err, jerr)
	}
}

// Property: the writers' output is json.Encoder's, byte for byte, for
// strings that need every kind of escaping and integers of every size.
func TestWritersMatchJSONEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"a", "Z", "9", " ", "-", "_", `"`, `\`, "/", "<", ">", "&", "\x00", "\n", "\t", "\x1f", "\x7f",
		"é", " ", " ", "\xff", "\xc3", "日本", ""}
	str := func() string {
		var sb strings.Builder
		for n := rng.Intn(6); n > 0; n-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	num := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Int63n(1000) - 500
		case 2:
			return []int64{-1 << 63, 1<<63 - 1}[rng.Intn(2)]
		}
		return rng.Int63() - rng.Int63()
	}
	var visits []trace.Visit
	var msgs []trace.Message
	var want, wantMsgs bytes.Buffer
	enc, encMsgs := json.NewEncoder(&want), json.NewEncoder(&wantMsgs)
	for i := 0; i < 2000; i++ {
		v := trace.Visit{Server: str(), Class: str(), TxnID: num(), HopID: num(),
			Arrive: simnet.Time(num()), Depart: simnet.Time(num()), Downstream: simnet.Duration(num())}
		visits = append(visits, v)
		if err := enc.Encode(visitRecord{v.Server, v.Class, v.TxnID, v.HopID, int64(v.Arrive), int64(v.Depart), int64(v.Downstream)}); err != nil {
			t.Fatal(err)
		}
		m := trace.Message{At: simnet.Time(num()), From: str(), To: str(), Dir: trace.Direction(rng.Intn(3)), Class: str(),
			Conn: num(), TxnID: num(), HopID: num(), ParentHop: num(), Bytes: num()}
		msgs = append(msgs, m)
		if err := encMsgs.Encode(messageRecord{int64(m.At), m.From, m.To, m.Dir.String(), m.Class, m.Conn, m.TxnID, m.HopID, m.ParentHop, m.Bytes}); err != nil {
			t.Fatal(err)
		}
	}
	var got, gotMsgs bytes.Buffer
	if err := WriteVisits(&got, visits); err != nil {
		t.Fatal(err)
	}
	if err := WriteMessages(&gotMsgs, msgs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("WriteVisits differs from json.Encoder at %s", firstDiff(got.Bytes(), want.Bytes()))
	}
	if !bytes.Equal(gotMsgs.Bytes(), wantMsgs.Bytes()) {
		t.Errorf("WriteMessages differs from json.Encoder at %s", firstDiff(gotMsgs.Bytes(), wantMsgs.Bytes()))
	}
}

func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range w {
		if i >= len(g) || !bytes.Equal(g[i], w[i]) {
			if i >= len(g) {
				return "missing line " + string(w[i])
			}
			return "line " + string(g[i]) + ", want " + string(w[i])
		}
	}
	return "extra output"
}

// hostileReader yields prefix bytes of 'x' with no newline, then tail.
type hostileReader struct {
	prefix int
	tail   *strings.Reader
}

func (h *hostileReader) Read(p []byte) (int, error) {
	if h.prefix == 0 {
		return h.tail.Read(p)
	}
	n := min(len(p), h.prefix)
	for i := range p[:n] {
		p[i] = 'x'
	}
	h.prefix -= n
	return n, nil
}

// A line with no newline in sight must not be buffered without limit: it
// is dropped at maxLineBytes, counted once, and the lines after it decode.
func TestOverlongLineBounded(t *testing.T) {
	const prefix = 64 << 20
	tail := "\n" + visitLine1 + "\n" + strings.Repeat(" ", 70<<10) + visitLine2 + "\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var out []trace.Visit
	stats, err := StreamVisitsOpts(&hostileReader{prefix, strings.NewReader(tail)}, StreamOptions{Policy: Skip},
		func(batch []trace.Visit) error {
			out = append(out, batch...)
			return nil
		})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	// Line 3 is longer than the reader's buffer but under the cap: it takes
	// the accumulating read and still decodes.
	if len(out) != 2 || out[1].Arrive != 3 || stats.Lines != 3 || stats.Malformed != 1 || stats.Decoded != 2 {
		t.Errorf("visits %+v, stats %+v", out, stats)
	}
	if len(stats.Errors) != 1 || stats.Errors[0].Line != 1 {
		t.Errorf("errors %+v, want the overlong line 1 recorded", stats.Errors)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*maxLineBytes {
		t.Errorf("allocated %d bytes reading a %d-byte line, want at most %d", grew, prefix, 8*maxLineBytes)
	}

	_, err = StreamVisitsOpts(&hostileReader{prefix, strings.NewReader(tail)}, StreamOptions{},
		func([]trace.Visit) error { return nil })
	if err == nil || !strings.HasPrefix(err.Error(), "traceio: line 1: line longer than") {
		t.Errorf("strict: err %v, want a line 1 error", err)
	}
	// An overlong final line with no newline at all ends the read cleanly.
	stats, err = StreamVisitsOpts(io.MultiReader(strings.NewReader(visitLine1+"\n"), &hostileReader{2 << 20, strings.NewReader("")}),
		StreamOptions{Policy: Skip}, func([]trace.Visit) error { return nil })
	if err != nil || stats.Decoded != 1 || stats.Malformed != 1 {
		t.Errorf("overlong final line: stats %+v, err %v", stats, err)
	}
}
