package obs

import (
	"encoding/json"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d", got)
	}
	if r.Counter("x.count") != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("x.depth")
	g.Set(7)
	g.Add(-3)
	g.Add(2)
	if g.Value() != 6 || g.Max() != 7 {
		t.Fatalf("gauge = %d max = %d", g.Value(), g.Max())
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{2*time.Microsecond + 1, 2},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10},
		{time.Second, 20},
		{1 << 62, histBuckets - 1},
	}
	for _, tc := range cases {
		if got := bucketOf(tc.d); got != tc.want {
			t.Errorf("bucketOf(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := r.Snapshot().Hist("lat")
	if s == nil {
		t.Fatal("histogram missing from snapshot")
	}
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != 100*time.Millisecond {
		t.Fatalf("max = %v", s.Max)
	}
	// Log-scale buckets bound the error to one bucket width: p50 of a
	// uniform 1..100ms distribution must land within (32ms, 64ms].
	if s.P50 <= 32*time.Millisecond || s.P50 > 64*time.Millisecond {
		t.Errorf("p50 = %v, want in (32ms, 64ms]", s.P50)
	}
	if s.P99 <= 64*time.Millisecond || s.P99 > 100*time.Millisecond {
		t.Errorf("p99 = %v, want in (64ms, 100ms] (clamped to max)", s.P99)
	}
	// Bucket sums must equal the observation count (the invariant the
	// mgmt-query test asserts over the wire).
	var sum uint64
	for _, b := range s.Buckets {
		sum += b.N
	}
	if sum != s.Count {
		t.Fatalf("bucket sum %d != count %d", sum, s.Count)
	}
}

func TestHistogramEmptyAndSingle(t *testing.T) {
	var h Histogram
	if q := quantile([histBuckets]uint64{}, 0, 0, 0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
	h.Observe(3 * time.Millisecond)
	s := histSnap("one", &h)
	if s.P50 > 3*time.Millisecond || s.P99 > 3*time.Millisecond {
		t.Fatalf("single-observation quantiles exceed max: p50=%v p99=%v", s.P50, s.P99)
	}
}

func TestFuncMetricAndSnapshotLookup(t *testing.T) {
	r := NewRegistry()
	v := uint64(41)
	r.Func("ext.value", func() uint64 { return v })
	v++
	s := r.Snapshot()
	if got := s.Count("ext.value"); got != 42 {
		t.Fatalf("func metric = %d", got)
	}
	if _, ok := s.Value("missing"); ok {
		t.Fatal("lookup of missing metric succeeded")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Gauge("b").Set(3)
	r.Histogram("c").Observe(time.Millisecond)
	var back Snapshot
	if err := json.Unmarshal([]byte(r.Snapshot().JSON()), &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Count("a") != 1 || back.Gauge("b").Value != 3 || back.Hist("c").Count != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if txt := r.Snapshot().Text(); txt == "" {
		t.Fatal("empty text rendering")
	}
}
