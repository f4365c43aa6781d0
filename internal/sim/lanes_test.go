package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

type laneItem struct {
	t    Time
	lane int
	seq  int // position within its lane
}

// TestMergeLanesMatchesStableSort holds the k-way merge to its
// reference: concatenate the lanes and stable-sort by (time, lane).
// Random time-ordered lanes cover empty lanes, same-instant ties across
// lanes and runs of ties within one lane (the clock has few distinct
// values, so ties are common).
func TestMergeLanesMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		lanes := make([][]laneItem, rng.Intn(8))
		var all []laneItem
		for i := range lanes {
			n := rng.Intn(12)
			if rng.Intn(4) == 0 {
				n = 0
			}
			var now Time
			for k := 0; k < n; k++ {
				now += Time(rng.Intn(3))
				it := laneItem{t: now, lane: i, seq: k}
				lanes[i] = append(lanes[i], it)
				all = append(all, it)
			}
		}
		sort.SliceStable(all, func(a, b int) bool {
			if all[a].t != all[b].t {
				return all[a].t < all[b].t
			}
			return all[a].lane < all[b].lane
		})
		var got []laneItem
		MergeLanes(lanes, func(l []laneItem) []laneItem { return l },
			func(it *laneItem) Time { return it.t },
			func(lane int, it *laneItem) {
				if lane != it.lane {
					t.Fatalf("trial %d: item of lane %d visited as lane %d", trial, it.lane, lane)
				}
				got = append(got, *it)
			})
		if !reflect.DeepEqual(got, all) {
			t.Fatalf("trial %d: merge\n%v\nwant\n%v", trial, got, all)
		}
	}
}

// TestMergeLanesRejectsDisorder pins the precondition: a lane whose
// times run backwards is a recording bug, not something to merge
// quietly into the wrong order.
func TestMergeLanesRejectsDisorder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order lane merged without a panic")
		}
	}()
	MergeLanes([][]Time{{1, 3}, {2, 1}}, func(l []Time) []Time { return l },
		func(t *Time) Time { return *t }, func(int, *Time) {})
}

// TestLanesRegistry checks that lanes are created once per name and
// listed in creation order.
func TestLanesRegistry(t *testing.T) {
	var s Lanes[*[]int]
	made := 0
	mk := func() *[]int { made++; return new([]int) }
	a := s.Lane("ch1", mk)
	b := s.Lane("backbone", mk)
	if s.Lane("ch1", mk) != a || made != 2 {
		t.Fatalf("Lane is not idempotent per name (%d lanes made)", made)
	}
	if got := s.Names(); !reflect.DeepEqual(got, []string{"ch1", "backbone"}) {
		t.Fatalf("names %v, want creation order", got)
	}
	if all := s.All(); len(all) != 2 || all[0] != a || all[1] != b {
		t.Fatal("All does not list the lanes in creation order")
	}
}
