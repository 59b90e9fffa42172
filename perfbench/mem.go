package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// memSampler tracks the peak of the memory the Go runtime holds from the
// OS (mapped minus released) while a timed section runs, sampling every
// few milliseconds from its own goroutine.
type memSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	mu   sync.Mutex
	peak uint64
}

var memMetrics = []string{"/memory/classes/total:bytes", "/memory/classes/heap/released:bytes"}

func heldBytes(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{})}
	s := make([]metrics.Sample, len(memMetrics))
	for i, name := range memMetrics {
		s[i].Name = name
	}
	m.peak = heldBytes(s)
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				m.observe(heldBytes(s))
				return
			case <-t.C:
				m.observe(heldBytes(s))
			}
		}
	}()
	return m
}

func (m *memSampler) observe(b uint64) {
	m.mu.Lock()
	m.peak = max(m.peak, b)
	m.mu.Unlock()
}

// lapMB returns the peak in MiB since the sampler started or the last
// lap, and starts a new lap.
func (m *memSampler) lapMB() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peak
	m.peak = 0
	return float64(p) / (1 << 20)
}

// stopMB ends sampling and returns the peak of the last lap in MiB.
func (m *memSampler) stopMB() float64 {
	close(m.stop)
	m.done.Wait()
	return m.lapMB()
}
