package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 1); got != 1 {
		t.Fatalf("Clamp(5,0,1) = %v, want 1", got)
	}
	if got := Clamp(-5, 0, 1); got != 0 {
		t.Fatalf("Clamp(-5,0,1) = %v, want 0", got)
	}
	if got := Clamp(0.5, 0, 1); got != 0.5 {
		t.Fatalf("Clamp(0.5,0,1) = %v, want 0.5", got)
	}
}

func TestClampProbStaysOpen(t *testing.T) {
	for _, x := range []float64{-1, 0, 0.5, 1, 2} {
		p := ClampProb(x)
		if p <= 0 || p >= 1 {
			t.Fatalf("ClampProb(%v) = %v escapes (0,1)", x, p)
		}
	}
}

func TestLogSumExp(t *testing.T) {
	got := LogSumExp(math.Log(0.25), math.Log(0.25), math.Log(0.5))
	if !almostEqual(got, 0, 1e-12) {
		t.Fatalf("LogSumExp of probs summing to 1 = %v, want 0", got)
	}
	if !math.IsInf(LogSumExp(), -1) {
		t.Fatal("LogSumExp() should be -Inf")
	}
	// Stability: huge magnitudes must not overflow.
	got = LogSumExp(1000, 1000)
	if !almostEqual(got, 1000+math.Log(2), 1e-9) {
		t.Fatalf("LogSumExp(1000,1000) = %v", got)
	}
}

// normalizeLog is NormalizeLogInto into a fresh slice.
func normalizeLog(logw []float64) ([]float64, error) {
	p := make([]float64, len(logw))
	return p, NormalizeLogInto(p, logw)
}

func TestNormalizeLog(t *testing.T) {
	p, err := normalizeLog([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(p[0], 0.5, 1e-12) || !almostEqual(p[1], 0.5, 1e-12) {
		t.Fatalf("NormalizeLog equal weights = %v", p)
	}
	if _, err := normalizeLog(nil); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
	// All -Inf falls back to uniform.
	p, err = normalizeLog([]float64{math.Inf(-1), math.Inf(-1)})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(p[0], 0.5, 1e-12) {
		t.Fatalf("degenerate NormalizeLog = %v", p)
	}
}

func TestNormalizeLogSumsToOne(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		logw := make([]float64, len(raw))
		for i, x := range raw {
			logw[i] = math.Mod(x, 50) // keep magnitudes sane
			if math.IsNaN(logw[i]) {
				logw[i] = 0
			}
		}
		p, err := normalizeLog(logw)
		if err != nil {
			return false
		}
		var sum float64
		for _, x := range p {
			if x < 0 {
				return false
			}
			sum += x
		}
		return almostEqual(sum, 1, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZScore(t *testing.T) {
	if ZScore(3, 1, 1) != 2 {
		t.Fatal("z(3;1,1) != 2")
	}
	if ZScore(3, 1, 0) != 0 {
		t.Fatal("zero-sd z should be 0")
	}
}
