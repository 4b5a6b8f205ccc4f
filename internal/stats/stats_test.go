package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestPercentileExact(t *testing.T) {
	s := NewSample(5)
	for _, x := range []float64{5, 1, 3, 2, 4} {
		s.Add(x)
	}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Fatalf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	s := NewSample(2)
	s.Add(10)
	s.Add(20)
	if got := s.Percentile(50); got != 15 {
		t.Fatalf("p50 = %v", got)
	}
}

func TestMeanAndDur(t *testing.T) {
	s := NewSample(2)
	s.AddDur(10 * time.Millisecond)
	s.AddDur(20 * time.Millisecond)
	if got := s.Mean(); got != 15 {
		t.Fatalf("mean = %v", got)
	}
}

func TestSummarizeOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	s := NewSample(1000)
	for i := 0; i < 1000; i++ {
		s.Add(r.Float64() * 100)
	}
	sum := s.Summarize()
	if !(sum.Min <= sum.P50 && sum.P50 <= sum.P90 && sum.P90 <= sum.P95 &&
		sum.P95 <= sum.P99 && sum.P99 <= sum.Max) {
		t.Fatalf("summary not ordered: %+v", sum)
	}
	if sum.N != 1000 {
		t.Fatalf("n = %d", sum.N)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(vals []float64, a, b uint8) bool {
		if len(vals) == 0 {
			return true
		}
		s := NewSample(len(vals))
		for _, v := range vals {
			s.Add(v)
		}
		pa := float64(a) / 255 * 100
		pb := float64(b) / 255 * 100
		if pa > pb {
			pa, pb = pb, pa
		}
		return s.Percentile(pa) <= s.Percentile(pb)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEmptySamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSample(0).Percentile(50)
}

func TestCounterRates(t *testing.T) {
	c := NewCounter(time.Second)
	for i := 0; i < 10; i++ {
		c.Tick(time.Duration(i) * 200 * time.Millisecond) // 5/s for 2s
	}
	rates := c.Rates()
	if len(rates) != 2 || rates[0] != 5 || rates[1] != 5 {
		t.Fatalf("rates = %v", rates)
	}
}
