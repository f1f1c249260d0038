package analysis

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// histPairLoop is the hist-discounter's n×m form, kept as the oracle for
// the corpus form: every (buggy, normal) run pair compares the function's
// cost ranks directly.
func histPairLoop(p Params, normalRanks, buggyRanks []map[string]int) map[string]float64 {
	funcs := map[string]bool{}
	for _, rs := range [][]map[string]int{normalRanks, buggyRanks} {
		for _, r := range rs {
			for f := range r {
				funcs[f] = true
			}
		}
	}
	names := make([]string, 0, len(funcs))
	for f := range funcs {
		names = append(names, f)
	}
	sort.Strings(names)
	out := map[string]float64{}
	for _, f := range names {
		h, c := 0, 0
		for _, br := range buggyRanks {
			bRank, bOK := br[f]
			for _, nr := range normalRanks {
				nRank, nOK := nr[f]
				if !bOK && !nOK {
					continue
				}
				c++
				switch {
				case !bOK:
					// Only seen in normal: costlier there.
					h++
				case !nOK:
					// Only seen in buggy: elevated by the bug.
				case nRank < bRank:
					// Smaller rank number = more costly.
					h++
				}
			}
		}
		if c == 0 {
			continue
		}
		r := float64(h) / float64(c)
		if r < p.ValidDiscount {
			r = 0
		}
		out[f] = r
	}
	return out
}

// randRanks draws one run's dense ranking over a random subset of funcs, so
// functions are often absent from a run, a side, or both.
func randRanks(rng *rand.Rand, funcs []string) map[string]int {
	out := map[string]int{}
	rank := 0
	for _, f := range funcs {
		if rng.Intn(3) == 0 {
			continue
		}
		if rank == 0 || rng.Intn(4) != 0 { // some ties
			rank++
		}
		out[f] = rank
	}
	// Shuffle which function holds which rank.
	keys := make([]string, 0, len(out))
	for f := range out {
		keys = append(keys, f)
	}
	sort.Strings(keys)
	vals := make([]int, len(keys))
	for i, f := range keys {
		vals[i] = out[f]
	}
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	for i, f := range keys {
		out[f] = vals[i]
	}
	return out
}

// TestHistDiscounterCorpusMatchesPairLoop: the corpus form of the
// hist-discounter yields exactly the n×m pair loop's ratios on random rank
// maps, including functions present on only one side, for any worker count.
func TestHistDiscounterCorpusMatchesPairLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	funcs := make([]string, 12)
	for i := range funcs {
		funcs[i] = fmt.Sprintf("f%02d", i)
	}
	for trial := 0; trial < 300; trial++ {
		p := DefaultParams()
		p.Workers = 1 + rng.Intn(4)
		normal := make([]map[string]int, 1+rng.Intn(6))
		buggy := make([]map[string]int, 1+rng.Intn(6))
		// Split the universe so some functions live on one side only.
		nFuncs, bFuncs := funcs[:9], funcs[3:]
		for i := range normal {
			normal[i] = randRanks(rng, nFuncs)
		}
		for i := range buggy {
			buggy[i] = randRanks(rng, bFuncs)
		}
		corpus := NewCorpus()
		for _, r := range normal {
			corpus.AddRanks(r)
		}
		got, err := histDiscounter(context.Background(), p, corpus, buggy)
		if err != nil {
			t.Fatal(err)
		}
		if want := histPairLoop(p, normal, buggy); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: corpus form %v, pair loop %v", trial, got, want)
		}
	}
}
