package main

import "testing"

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// gives [2.75, 5.5, 8.25].
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x + d
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		floor  float64
		want   string
		moved  bool
	}{
		{"unchanged", base, base, true, 0, "same", false},
		{"faster", base, shift(20), true, 0, "better", true},
		{"faster within the bound", base, shift(5), true, 0, "better", false},
		{"slower beyond the bound", base, shift(-20), true, 0, "worse", true},
		{"slower within the bound", base, shift(-5), true, 0, "same", false},
		{"slower within the floor", base, shift(20), false, 30, "same", false},
		{"parent too noisy", noisy, shift(-20), true, 0, "unresolved", true},
	} {
		r := judge(c.a, c.b, c.higher, 0.10, c.floor)
		if r.verdict != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, r.verdict, c.want)
		}
		if r.moved != c.moved {
			t.Errorf("%s: moved beyond the bound %v, want %v", c.name, r.moved, c.moved)
		}
	}
}
