package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestConstAndUniform(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if d := (Const(5 * time.Millisecond)).Sample(r); d != 5*time.Millisecond {
		t.Fatalf("const sample %v", d)
	}
	u := Uniform{Lo: time.Millisecond, Hi: 2 * time.Millisecond}
	for i := 0; i < 100; i++ {
		d := u.Sample(r)
		if d < u.Lo || d > u.Hi {
			t.Fatalf("uniform out of range: %v", d)
		}
	}
}

func TestQuantileReproducesCalibrationPoints(t *testing.T) {
	// The DynamoDB 1 kB write row from Table 6a of the paper.
	d := Q(3.95, 4.35, 4.79, 6.33, 60.26)
	checks := []struct {
		u    float64
		want float64
	}{
		{0, 3.95}, {0.5, 4.35}, {0.95, 4.79}, {0.99, 6.33}, {1, 60.26},
	}
	for _, c := range checks {
		got := ms(d.at(c.u))
		if got < c.want*0.999 || got > c.want*1.001 {
			t.Fatalf("at(%v) = %v, want %v", c.u, got, c.want)
		}
	}
}

// TestQuantileLogsTakenOnce: at, which interpolates between logs taken at
// construction, returns exactly what the formula taking both logs on every
// sample returns, over 10⁵ values of u and both table shapes.
func TestQuantileLogsTakenOnce(t *testing.T) {
	reference := func(d *Quantile, u float64) time.Duration {
		if u <= 0 {
			return msToDur(d.vs[0])
		}
		if u >= 1 {
			return msToDur(d.vs[len(d.vs)-1])
		}
		i := 1
		for d.qs[i] < u {
			i++
		}
		lo, hi := d.qs[i-1], d.qs[i]
		vlo, vhi := d.vs[i-1], d.vs[i]
		t := (u - lo) / (hi - lo)
		return msToDur(math.Exp(math.Log(vlo)*(1-t) + math.Log(vhi)*t))
	}
	r := rand.New(rand.NewSource(3))
	for _, d := range []*Quantile{Q(3.95, 4.35, 4.79, 6.33, 60.26), Q90(0.4, 0.4, 0.9, 1.3, 7.1)} {
		for i := 0; i < 100000; i++ {
			u := r.Float64()
			if i < 3 {
				u = []float64{0, 0.5, 1}[i] // the table's ends and a calibration point
			}
			if got, want := d.at(u), reference(d, u); got != want {
				t.Fatalf("at(%v) = %v, the per-sample formula gives %v", u, got, want)
			}
		}
	}
}

func TestQuantileEmpiricalPercentiles(t *testing.T) {
	d := Q(3.95, 4.35, 4.79, 6.33, 60.26)
	r := rand.New(rand.NewSource(7))
	n := 20000
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = ms(d.Sample(r))
	}
	sort.Float64s(samples)
	p50 := samples[n/2]
	p99 := samples[n*99/100]
	if p50 < 4.0 || p50 > 4.7 {
		t.Fatalf("empirical p50 = %v", p50)
	}
	if p99 < 5.0 || p99 > 9.0 {
		t.Fatalf("empirical p99 = %v", p99)
	}
	if samples[0] < 3.95 || samples[n-1] > 60.26 {
		t.Fatalf("range [%v, %v]", samples[0], samples[n-1])
	}
}

func TestQuantileMonotonicProperty(t *testing.T) {
	d := Q(1, 2, 10, 50, 300)
	f := func(a, b float64) bool {
		ua, ub := a-float64(int(a)), b-float64(int(b)) // frac parts in (-1,1)
		if ua < 0 {
			ua = -ua
		}
		if ub < 0 {
			ub = -ub
		}
		lo, hi := ua, ub
		if lo > hi {
			lo, hi = hi, lo
		}
		return d.at(lo) <= d.at(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("short", func() { NewQuantile([]float64{0}, []float64{1}) })
	mustPanic("span", func() { NewQuantile([]float64{0.1, 1}, []float64{1, 2}) })
	mustPanic("nonmono-q", func() { NewQuantile([]float64{0, 0.5, 0.5, 1}, []float64{1, 2, 3, 4}) })
	mustPanic("decreasing-v", func() { NewQuantile([]float64{0, 1}, []float64{2, 1}) })
	mustPanic("nonpositive", func() { NewQuantile([]float64{0, 1}, []float64{0, 1}) })
}

func TestScaleShiftSum(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	base := Const(10 * time.Millisecond)
	if got := Scale(base, 2).Sample(r); got != 20*time.Millisecond {
		t.Fatalf("scale: %v", got)
	}
	s := Sum{base, base, Const(time.Millisecond)}
	if got := s.Sample(r); got != 21*time.Millisecond {
		t.Fatalf("sum: %v", got)
	}
}

func TestMsRoundTrip(t *testing.T) {
	if Ms(2.5) != 2500*time.Microsecond {
		t.Fatalf("Ms: %v", Ms(2.5))
	}
}

// ms converts a duration to float milliseconds, the unit of the paper's
// latency tables.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
