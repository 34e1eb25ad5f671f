package transientbd

import (
	"math"
	"testing"
	"time"
)

// fuzzRecords deterministically expands raw fuzz bytes into a record
// stream plus interleaved clock advances. Value ranges are hostile on
// purpose: out-of-order arrivals, zero-duration and inverted spans,
// far-future timestamps, classes that collide and classes the calibration
// table has never seen — the feeds a passive tracer can produce when the
// network or its clock misbehaves.
func fuzzRecords(data []byte) ([]Record, []time.Duration) {
	const stride = 10
	servers := []string{"web", "app", "db"}
	classes := []string{"", "a", "b", "zzz"}
	var recs []Record
	var advances []time.Duration
	for i := 0; i+stride <= len(data) && len(recs) < 512; i += stride {
		b := data[i : i+stride]
		arrive := int64(b[0])<<16 | int64(b[1])<<8 | int64(b[2])
		span := int64(b[3])<<8 | int64(b[4])
		switch b[5] % 8 {
		case 0:
			arrive = -arrive // before the epoch
		case 1:
			arrive <<= 24 // far future
		case 2:
			span = -span // departs before it arrives
		case 3:
			span = 0 // zero-duration visit
		}
		recs = append(recs, Record{
			Server:         servers[int(b[6])%len(servers)],
			Class:          classes[int(b[7])%len(classes)],
			Arrive:         time.Duration(arrive) * time.Microsecond,
			Depart:         time.Duration(arrive+span) * time.Microsecond,
			DownstreamWait: time.Duration(int64(b[8])) * time.Microsecond,
		})
		if b[9]%4 == 0 {
			advances = append(advances, time.Duration(arrive+int64(b[9])<<8)*time.Microsecond)
		} else {
			advances = append(advances, -1)
		}
	}
	return recs, advances
}

// checkAlert fails the test if an alert carries a non-finite measurement —
// the invariant the online path must hold whatever garbage it is fed.
func checkAlert(t *testing.T, a OnlineAlert) {
	t.Helper()
	if math.IsNaN(a.Load) || math.IsInf(a.Load, 0) {
		t.Fatalf("alert with non-finite load %v (server %s at %v)", a.Load, a.Server, a.Time)
	}
	if math.IsNaN(a.Throughput) || math.IsInf(a.Throughput, 0) {
		t.Fatalf("alert with non-finite throughput %v (server %s at %v)", a.Throughput, a.Server, a.Time)
	}
}

// FuzzOnlineObserve asserts the online path's contract over arbitrary
// record streams: never panic, never emit an alert with NaN/Inf load or
// throughput. The sharded Stream runtime is driven end to end (Observe
// with interleaved hostile Advance calls → watermark → merger → Close),
// with a small window so closures and N* re-estimation actually happen
// within fuzz-sized inputs; its final report must be finite too.
func FuzzOnlineObserve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{255, 255, 255, 0, 16, 1, 1, 1, 1, 0, 0, 0, 0, 255, 255, 2, 2, 2, 2, 4})
	f.Add([]byte{7, 7, 7, 7, 7, 3, 0, 3, 200, 0, 9, 9, 9, 0, 1, 0, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, advances := fuzzRecords(data)

		st, err := NewStream(StreamConfig{
			OnlineConfig: OnlineConfig{
				Interval:   time.Millisecond,
				Window:     100 * time.Millisecond,
				Reestimate: 10 * time.Millisecond,
			},
			Shards:   3,
			FlushLag: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("NewStream: %v", err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for a := range st.Alerts() {
				checkAlert(t, a)
			}
		}()
		for i, r := range recs {
			// Invalid records may be rejected; that is Observe's contract,
			// not a fuzz failure. Panics and non-finite alerts are.
			_ = st.Observe(r)
			if advances[i] >= 0 {
				if err := st.Advance(advances[i]); err != nil {
					t.Fatalf("Advance: %v", err)
				}
			}
		}
		if err := st.Advance(1 << 40 * time.Microsecond); err != nil {
			t.Fatalf("Advance: %v", err)
		}
		report := st.Close()
		<-done
		if report != nil {
			for _, sa := range report.Ranking {
				if math.IsNaN(sa.NStar) || math.IsInf(sa.NStar, 0) {
					t.Fatalf("final report: non-finite N* for %s", sa.Server)
				}
				for _, v := range sa.Load {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("final report: non-finite load for %s", sa.Server)
					}
				}
				for _, v := range sa.Throughput {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("final report: non-finite throughput for %s", sa.Server)
					}
				}
			}
		}
	})
}
