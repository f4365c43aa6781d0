package main

import (
	"container/heap"
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// The shared VM this benchmark was tuned on switched between two speed
// modes about 2x apart, for tens of minutes at a time, with no steal
// time visible to the guest: seattle-ping's median echo took 7.7 µs in
// one mode and 15.4 µs in the other. A raw wall figure from one mode
// cannot be compared with one from the other. So a run also times a
// fixed kernel of the benchmark's own, independent of the simulator,
// and states its time figures in reference seconds: wall seconds
// scaled by calibrationRef over the kernel's median time in the run.
// The kernel took 17–18 ms in the fast mode and 43 ms in the slow one,
// so the scaling leaves about a fifth of the swing, not all of it.

// calibrationRef is the kernel's time in the tuning machine's fast
// mode, so reference seconds read close to its wall seconds there.
const calibrationRef = 18 * time.Millisecond

// calibrateEvery spaces the calibrations in a run: one before a rep
// once this long has passed since the last.
const calibrateEvery = 250 * time.Millisecond

// calibrate times the kernel once, after a forced GC so that it starts
// from the same heap every time. The kernel mixes the simulator's kinds
// of work: map updates, a binary heap, small allocations and a sort.
func calibrate() time.Duration {
	runtime.GC()
	start := time.Now()
	rng := rand.New(rand.NewSource(1))
	m := make(map[uint64]uint64)
	h := &u64Heap{}
	keep := make([][]byte, 0, 4096)
	xs := make([]float64, 0, 8000)
	for i := 0; i < 80000; i++ {
		k := rng.Uint64() % 20000
		m[k] += uint64(i)
		heap.Push(h, k)
		if h.Len() > 1000 {
			heap.Pop(h)
		}
		keep = append(keep, make([]byte, 64))
		if len(keep) == cap(keep) {
			keep = keep[:0]
		}
		if i%10 == 0 {
			xs = append(xs, rng.Float64())
		}
	}
	sort.Float64s(xs)
	d := time.Since(start)
	runtime.KeepAlive(m)
	runtime.KeepAlive(keep)
	return d
}

type u64Heap []uint64

func (h u64Heap) Len() int           { return len(h) }
func (h u64Heap) Less(i, j int) bool { return h[i] < h[j] }
func (h u64Heap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *u64Heap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *u64Heap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
