package gp

import "sync"

// Workspace holds prediction scratch (the k* vector and the triangular
// solve result, twice over: PredictN scores points in pairs) so hot loops
// can call PredictWS without per-call heap allocation. A Workspace belongs
// to one goroutine at a time; Predict and PredictN draw from an internal
// pool, while tight callers (the acquisition search) keep one per worker
// via NewWorkspace.
type Workspace struct {
	kstar, kstar1, v, v1 []float64 // four views of one allocation
}

// NewWorkspace returns an empty workspace; buffers grow on first use and
// are then reused.
func NewWorkspace() *Workspace { return &Workspace{} }

// ensure grows the buffers to hold n elements each; callers slice to n.
func (w *Workspace) ensure(n int) {
	if cap(w.kstar) >= n {
		return
	}
	c := n + n/2 + 8
	slab := make([]float64, 4*c)
	w.kstar, w.kstar1, w.v, w.v1 = slab[:c:c], slab[c:2*c:2*c], slab[2*c:3*c:3*c], slab[3*c:]
}

var wsPool = sync.Pool{New: func() any { return &Workspace{} }}
