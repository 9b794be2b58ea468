package platform

import "testing"

// TestArrivalRandStream pins the first draws of the per-arrival RNG for
// two adjacent seeds. Every arrival's noise and artifact draws come from
// this stream, so swapping the source moves seedCorpusHash; this test
// names the cause when that happens.
func TestArrivalRandStream(t *testing.T) {
	cases := []struct {
		seed     int64
		int63    [3]int64
		float64  [2]float64
		intn1000 int
		intn7    int
	}{
		{seed: 1, int63: [3]int64{6639650776290223446, 1964671987072429691, 5526393542171997567}, float64: [2]float64{0.04615084686951406, 0.5882593686305225}, intn1000: 457, intn7: 3},
		{seed: 2, int63: [3]int64{5402136493710207624, 6803542260329972888, 6627263278709050811}, float64: [2]float64{0.648791418250555, 0.06099140928688419}, intn1000: 35, intn7: 1},
	}
	for _, c := range cases {
		r := newArrivalRand(c.seed)
		for i, want := range c.int63 {
			if got := r.Int63(); got != want {
				t.Errorf("seed %d: Int63 #%d = %d, want %d", c.seed, i, got, want)
			}
		}
		for i, want := range c.float64 {
			if got := r.Float64(); got != want {
				t.Errorf("seed %d: Float64 #%d = %v, want %v", c.seed, i, got, want)
			}
		}
		if got := r.Intn(1000); got != c.intn1000 {
			t.Errorf("seed %d: Intn(1000) = %d, want %d", c.seed, got, c.intn1000)
		}
		if got := r.Intn(7); got != c.intn7 {
			t.Errorf("seed %d: Intn(7) = %d, want %d", c.seed, got, c.intn7)
		}
	}
}
