package main

import (
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	f := pos - float64(lo)
	return xs[lo] + f*(xs[lo+1]-xs[lo])
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// memGauge tracks, over a pass, the peak of the memory the Go runtime
// holds from the OS and has not returned to it: everything it mapped
// minus the heap pages it released. It stands for the process's
// resident memory: it leaves out the program text and what the kernel
// holds for the process, and counts mapped pages not yet touched.
type memGauge struct {
	s    [2]metrics.Sample
	peak uint64
}

// sample folds the current figure into the pass's peak. It allocates
// nothing.
func (g *memGauge) sample() {
	if g.s[0].Name == "" {
		g.s[0].Name = "/memory/classes/total:bytes"
		g.s[1].Name = "/memory/classes/heap/released:bytes"
	}
	metrics.Read(g.s[:])
	if v := g.s[0].Value.Uint64() - g.s[1].Value.Uint64(); v > g.peak {
		g.peak = v
	}
}

// endPass returns the pass's peak in MiB and starts the next pass.
func (g *memGauge) endPass() float64 {
	g.sample()
	mb := float64(g.peak) / (1 << 20)
	g.peak = 0
	return mb
}
