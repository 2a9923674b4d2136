package main

import "testing"

func draws(seed int64, client, n int) []int {
	set := workingSet(seed)
	g := newReqGen(seed, client, set)
	out := make([]int, 0, 2*n)
	for i := 0; i < n; i++ {
		k, e := g.next()
		out = append(out, int(k), e)
	}
	return out
}

func TestReqGenSameSeedSameStream(t *testing.T) {
	a, b := draws(42, 0, 5000), draws(42, 0, 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs for the same seed: %d vs %d", i/2, a[i], b[i])
		}
	}
	differs := func(x, y []int) bool {
		for i := range x {
			if x[i] != y[i] {
				return true
			}
		}
		return false
	}
	if !differs(a, draws(43, 0, 5000)) {
		t.Error("seeds 42 and 43 gave the same stream")
	}
	if !differs(a, draws(42, 1, 5000)) {
		t.Error("clients 0 and 1 of one seed gave the same stream")
	}
}

func TestReqGenShape(t *testing.T) {
	set := workingSet(7)
	g := newReqGen(7, 0, set)
	const n = 20000
	bad, hits := 0, make([]int, len(set))
	for i := 0; i < n; i++ {
		k, e := g.next()
		switch {
		case k >= drawBadApp:
			bad++
			if e != -1 {
				t.Fatalf("malformed draw carries entry %d", e)
			}
		case (k == drawAdvise) != set[e].advise:
			t.Fatalf("draw kind %d on entry %d (advise=%v)", k, e, set[e].advise)
		default:
			hits[e]++
		}
	}
	if share := float64(bad) / n; share < 0.04 || share > 0.06 {
		t.Errorf("malformed share %.3f, want about %.2f", share, badShare)
	}
	// Zipf skew: the hottest entry draws far more than the mean.
	max, total := 0, 0
	for _, h := range hits {
		total += h
		if h > max {
			max = h
		}
	}
	if mean := total / len(hits); max < 4*mean {
		t.Errorf("hottest entry %d draws, mean %d: stream is not skewed", max, mean)
	}
}

func TestHotOrderFixesClassPerRank(t *testing.T) {
	var classes []int
	for _, seed := range []int64{3, 4, 5} {
		set := workingSet(seed)
		order := hotOrder(seed, set)
		seen := map[int]bool{}
		for rank, i := range order {
			if seen[i] {
				t.Fatalf("seed %d: entry %d ranked twice", seed, i)
			}
			seen[i] = true
			if seed == 3 {
				classes = append(classes, set[i].class)
			} else if set[i].class != classes[rank] {
				t.Errorf("seed %d rank %d: class %d, seed 3 has %d", seed, rank, set[i].class, classes[rank])
			}
		}
		if len(seen) != len(set) {
			t.Errorf("seed %d: %d of %d entries ranked", seed, len(seen), len(set))
		}
	}
}

func TestDeriveSeedNeverGolden(t *testing.T) {
	seen := map[int64]bool{}
	for s := int64(0); s < 50; s++ {
		for k := int64(0); k < 50; k++ {
			d := deriveSeed(s, k)
			if d < 2 || seen[d] {
				t.Fatalf("deriveSeed(%d, %d) = %d: golden, negative or repeated", s, k, d)
			}
			seen[d] = true
		}
	}
}
