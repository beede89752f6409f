package bo

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"autotune/internal/gp"
	"autotune/internal/optimizer"
	"autotune/internal/space"
)

// trust.go is the TuRBO-style local tier (Options.Surrogate =
// SurrogateLocal): instead of one global model, several small GPs each own
// a hyper-rectangular trust region in the scalar unit-cube encoding.
// Region maintenance — assignment, recentering, expand on streaks of
// successes, shrink on streaks of failures, restart when a region
// collapses — is a pure left fold over the trial history, so an optimizer
// that evolved incrementally and one rebuilt from the same history land in
// bit-identical region states. Suggestion search samples inside each box
// with index-derived RNG streams and reduces in job order, making
// suggestions bitwise-identical for any worker count.

const (
	trustInitLength = 0.8       // L0: initial box side in the unit cube
	trustMaxLength  = 1.6       // expansion cap
	trustMinLength  = 1.0 / 128 // collapse threshold triggering a restart
	trustSuccTol    = 3         // successes in a row before expanding
)

// trustRegion is one local model and its box. All fields are derived
// deterministically from the history fold.
type trustRegion struct {
	center  []float64 // scalar encoding of the region's best point
	length  float64
	bestY   float64
	bestIdx int
	succ    int
	fail    int

	restarts int
	members  []int // history indices assigned to this region, in order

	model  *gp.GP
	fitted []int // history indices the model currently conditions on
}

// inBox reports whether scalar point s lies in the region's box. It runs
// once per history point per fit and once per candidate per restart, so it
// must not allocate.
//
//autolint:hotpath
func (r *trustRegion) inBox(s []float64) bool {
	h := r.length / 2
	for k, v := range s {
		if math.Abs(v-r.center[k]) > h {
			return false
		}
	}
	return true
}

// localModels is the fold state for the local tier plus cached encodings.
type localModels struct {
	regions []*trustRegion
	synced  int // history prefix the fold has consumed

	// Per-history-index caches, appended by the fold: scalar encodings
	// (box geometry), model encodings (GP inputs), and model-unit targets.
	scal [][]float64
	enc  [][]float64
	ys   []float64

	failTol int

	// search state: one outcome slot per (region, restart) job and one
	// scalar scratch per worker.
	jobs    []localOutcome
	scratch [][]float64
}

// localOutcome is one (region, restart) search job's result: up to K
// candidates, best first, as scalar snapshots.
type localOutcome struct {
	scores []float64
	snaps  [][]float64
	n      int
	err    error
}

func newLocalModels(b *BO) *localModels {
	failTol := b.space.Dim()
	if failTol < 4 {
		failTol = 4
	}
	return &localModels{failTol: failTol}
}

// rebuild folds the whole history from scratch. xs and ys are the encoded
// inputs and model-unit targets refit() already computed.
func (lm *localModels) rebuild(b *BO, hist []optimizer.Observation, xs [][]float64, ys []float64) error {
	lm.regions = lm.regions[:0]
	lm.synced = 0
	lm.scal = lm.scal[:0]
	lm.enc = lm.enc[:0]
	lm.ys = lm.ys[:0]
	for i, obs := range hist {
		lm.fold(b, b.space.Encode(obs.Config), xs[i], ys[i])
	}
	return nil
}

// sync folds history entries past the consumed prefix. Only called when
// the incremental guards (finite values, stable warp shift) already hold.
func (lm *localModels) sync(b *BO, hist []optimizer.Observation) {
	enc := b.encoded()
	for i := lm.synced; i < len(hist); i++ {
		lm.fold(b, b.space.Encode(hist[i].Config), enc[i], b.modelUnitY(hist[i].Value))
	}
}

// fold consumes one observation: cache its encodings, seed or pick a
// region, update streak counters and geometry. Pure in (history, Options).
func (lm *localModels) fold(b *BO, s, enc []float64, y float64) {
	idx := lm.synced
	lm.scal = append(lm.scal, s)
	lm.enc = append(lm.enc, enc)
	lm.ys = append(lm.ys, y)
	lm.synced++

	if len(lm.regions) < b.opts.TrustRegions {
		// The first R observations each seed a region where they landed.
		r := &trustRegion{
			center:  append([]float64(nil), s...),
			length:  trustInitLength,
			bestY:   y,
			bestIdx: idx,
			members: []int{idx},
		}
		lm.regions = append(lm.regions, r)
		return
	}

	// Assign to the nearest center; ties break on the lowest region index.
	r := lm.regions[lm.nearestRegion(s)]
	r.members = append(r.members, idx)
	if y < r.bestY {
		r.bestY, r.bestIdx = y, idx
		copy(r.center, s)
		r.succ++
		r.fail = 0
	} else {
		r.fail++
		r.succ = 0
	}
	if r.succ >= trustSuccTol {
		r.succ = 0
		r.length *= 2
		if r.length > trustMaxLength {
			r.length = trustMaxLength
		}
	}
	if r.fail >= lm.failTol {
		r.fail = 0
		r.length /= 2
		if r.length < trustMinLength {
			lm.restart(r)
		}
	}
}

// nearestRegion returns the index of the region whose center is closest
// to s in scalar space (squared Euclidean, lowest index on ties).
//
//autolint:hotpath
func (lm *localModels) nearestRegion(s []float64) int {
	best, bestD := 0, math.Inf(1)
	for ri, r := range lm.regions {
		d := 0.0
		for k, v := range s {
			dv := v - r.center[k]
			d += dv * dv
		}
		if d < bestD {
			best, bestD = ri, d
		}
	}
	return best
}

// restart re-seeds a collapsed region at the observed point farthest from
// every other region's center (maximin, lowest index on ties) — the
// deterministic analogue of TuRBO's fresh random restart: it moves the
// region to the least-covered part of the explored space.
func (lm *localModels) restart(r *trustRegion) {
	r.restarts++
	r.length = trustInitLength
	r.succ, r.fail = 0, 0
	pick, pickD := -1, math.Inf(-1)
	for i, s := range lm.scal {
		d := math.Inf(1)
		for _, other := range lm.regions {
			if other == r {
				continue
			}
			dd := 0.0
			for k, v := range s {
				dv := v - other.center[k]
				dd += dv * dv
			}
			if dd < d {
				d = dd
			}
		}
		if d > pickD {
			pick, pickD = i, d
		}
	}
	if pick < 0 {
		pick = len(lm.scal) - 1
	}
	copy(r.center, lm.scal[pick])
	r.bestY, r.bestIdx = lm.ys[pick], pick
	// Membership restarts from the points the new box already covers, so
	// the fresh model is not conditioned on the collapsed region's past.
	r.members = r.members[:0]
	for i, s := range lm.scal {
		if r.inBox(s) {
			r.members = append(r.members, i)
		}
	}
	r.fitted = r.fitted[:0]
	r.model = nil
}

// globalMin is the incumbent in model units over everything folded.
func (lm *localModels) globalMin() float64 {
	best := math.Inf(1)
	for _, y := range lm.ys {
		if y < best {
			best = y
		}
	}
	return best
}

// ensureFit brings one region's GP up to date with its in-box membership:
// a pure rank-1 extension when the previous fit is a prefix, a refit
// otherwise. Capped at the most recent LocalCap members so every local
// model stays O(cap²) no matter how deep the history is.
func (lm *localModels) ensureFit(b *BO, r *trustRegion) error {
	want := r.members
	if len(want) == 0 {
		// A box can cover nothing after a shrink; fall back to the
		// region's best point so the model is at least defined.
		want = []int{r.bestIdx}
	}
	inBox := make([]int, 0, len(want))
	for _, i := range want {
		if r.inBox(lm.scal[i]) {
			inBox = append(inBox, i)
		}
	}
	if len(inBox) == 0 {
		inBox = append(inBox, r.bestIdx)
	}
	if cp := b.opts.LocalCap; cp > 0 && len(inBox) > cp {
		inBox = inBox[len(inBox)-cp:]
	}
	if r.model != nil && len(r.fitted) <= len(inBox) && intsEqualPrefix(r.fitted, inBox) {
		for _, i := range inBox[len(r.fitted):] {
			if err := r.model.Observe(lm.enc[i], lm.ys[i]); err != nil {
				return err
			}
			r.fitted = append(r.fitted, i)
		}
		return nil
	}
	if r.model == nil {
		r.model = gp.New(b.opts.Kernel.Clone(), b.opts.Noise)
		r.model.SetWorkers(b.opts.GPWorkers)
	}
	ax := make([][]float64, len(inBox))
	ay := make([]float64, len(inBox))
	for j, i := range inBox {
		ax[j] = lm.enc[i]
		ay[j] = lm.ys[i]
	}
	if err := r.model.Fit(ax, ay); err != nil {
		return err
	}
	r.fitted = append(r.fitted[:0], inBox...)
	return nil
}

// intsEqualPrefix reports whether a equals the first len(a) entries of b.
func intsEqualPrefix(a, b []int) bool {
	if len(a) > len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// suggestN runs the per-region box searches and returns the k best
// distinct candidates across all regions (k=1 for plain Suggest).
// Consumes exactly one value from b.rng, like the global search, and is
// bitwise-deterministic for any worker count: every (region, restart) job
// has an index-derived RNG stream and its own result slot, and the merge
// walks jobs in index order.
func (lm *localModels) suggestN(b *BO, k int) ([]space.Config, error) {
	for _, r := range lm.regions {
		if err := lm.ensureFit(b, r); err != nil {
			return nil, fmt.Errorf("bo: local fit: %w", err)
		}
	}
	b.ensureSampler()
	b.syncSeen()
	best := lm.globalMin()
	baseSeed := b.rng.Int63()

	nr := len(lm.regions)
	restarts := b.opts.AcqRestarts / nr
	if restarts < 1 {
		restarts = 1
	}
	per := b.opts.Candidates / (nr * restarts)
	if per < 4 {
		per = 4
	}
	totalJobs := nr * restarts
	if cap(lm.jobs) < totalJobs {
		lm.jobs = make([]localOutcome, totalJobs)
	}
	jobs := lm.jobs[:totalJobs]

	workers := b.opts.AcqWorkers
	if workers > totalJobs {
		workers = totalJobs
	}
	if workers < 1 {
		workers = 1
	}
	for len(lm.scratch) < workers {
		lm.scratch = append(lm.scratch, nil)
	}
	if workers <= 1 {
		for j := 0; j < totalJobs; j++ {
			lm.runBoxSearch(b, lm.regions[j/restarts], best, searchSeed(baseSeed, j), per, k, &jobs[j], &lm.scratch[0])
		}
	} else {
		var mu sync.Mutex
		var poolErr error
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer func() {
					// runBoxSearch recovers its own panics; this guards the
					// striding plumbing so wg.Wait always unblocks.
					if r := recover(); r != nil {
						mu.Lock()
						if poolErr == nil {
							poolErr = fmt.Errorf("bo: local search worker panic: %v", r)
						}
						mu.Unlock()
					}
					wg.Done()
				}()
				for j := w; j < totalJobs; j += workers {
					lm.runBoxSearch(b, lm.regions[j/restarts], best, searchSeed(baseSeed, j), per, k, &jobs[j], &lm.scratch[w])
				}
			}()
		}
		wg.Wait()
		if poolErr != nil {
			return nil, poolErr
		}
	}

	// Merge all job candidate lists in job order: repeatedly take the
	// highest score not yet picked and not a duplicate encoding.
	type ref struct{ job, slot int }
	picked := make(map[string]bool, k)
	out := make([]space.Config, 0, k)
	cursor := make([]int, totalJobs)
	for j := range jobs {
		if jobs[j].err != nil {
			return nil, jobs[j].err
		}
	}
	for len(out) < k {
		bestRef, bestScore := ref{-1, -1}, math.Inf(-1)
		for j := range jobs {
			c := cursor[j]
			if c < jobs[j].n && jobs[j].scores[c] > bestScore {
				bestScore = jobs[j].scores[c]
				bestRef = ref{j, c}
			}
		}
		if bestRef.job < 0 {
			break
		}
		cursor[bestRef.job]++
		snap := jobs[bestRef.job].snaps[bestRef.slot]
		cfg := b.space.Decode(snap)
		b.encodeInto(cfg, b.encBuf)
		key := string(encKey(b.encBuf, b.keyBuf))
		if picked[key] {
			continue
		}
		picked[key] = true
		out = append(out, cfg)
	}
	for len(out) < k {
		out = append(out, b.space.Sample(b.rng))
	}
	return out, nil
}

// runBoxSearch scores per candidates drawn uniformly inside the region's
// box, keeping the top k distinct unseen candidates in the outcome slot.
// Writes only its own outcome and worker scratch, so jobs run concurrently.
func (lm *localModels) runBoxSearch(b *BO, r *trustRegion, best float64, seed int64, per, k int, out *localOutcome, scratch *[]float64) {
	defer func() {
		if rec := recover(); rec != nil {
			out.err = fmt.Errorf("bo: local restart panic: %v", rec)
		}
	}()
	out.err = nil
	out.n = 0
	pdim := b.space.Dim()
	edim := b.ensureSampler().Dim()
	if cap(*scratch) < pdim+edim {
		*scratch = make([]float64, pdim+edim)
	}
	sBuf := (*scratch)[:pdim]
	eBuf := (*scratch)[pdim : pdim+edim]
	keyBuf := make([]byte, 8*edim)
	if cap(out.scores) < k {
		out.scores = make([]float64, k)
		out.snaps = make([][]float64, k)
		for i := range out.snaps {
			out.snaps[i] = make([]float64, pdim)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	half := r.length / 2
	ws := gp.NewWorkspace()
	for c := 0; c < per; c++ {
		for j := 0; j < pdim; j++ {
			v := r.center[j] + (rng.Float64()*2-1)*half
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			sBuf[j] = v
		}
		cfg := b.space.Decode(sBuf)
		b.encodeInto(cfg, eBuf)
		if b.seenEnc[string(encKey(eBuf, keyBuf))] {
			continue
		}
		mu, v, err := r.model.PredictWS(ws, eBuf)
		if err != nil {
			out.err = err
			return
		}
		sc := b.opts.Acq.Score(mu, math.Sqrt(v), best)
		lm.insertTopK(out, k, sc, sBuf)
	}
}

// insertTopK inserts (score, snapshot) into the outcome's descending
// top-k list, shifting lower entries down.
func (lm *localModels) insertTopK(out *localOutcome, k int, sc float64, snap []float64) {
	pos := out.n
	for pos > 0 && sc > out.scores[pos-1] {
		pos--
	}
	if pos >= k {
		return
	}
	if out.n < k {
		out.n++
	}
	// Shift down, reusing the displaced bottom buffer for the insert.
	spare := out.snaps[out.n-1]
	for i := out.n - 1; i > pos; i-- {
		out.scores[i] = out.scores[i-1]
		out.snaps[i] = out.snaps[i-1]
	}
	copy(spare, snap)
	out.scores[pos] = sc
	out.snaps[pos] = spare
}

// Restarts sums region restarts, for stats.
func (lm *localModels) Restarts() int {
	total := 0
	for _, r := range lm.regions {
		total += r.restarts
	}
	return total
}

// predict serves BO.Predict under the local tier: the posterior of the
// region owning cfg (nearest center).
func (lm *localModels) predict(b *BO, cfg space.Config) (float64, float64, error) {
	if len(lm.regions) == 0 {
		return 0, 0, gp.ErrNotFitted
	}
	s := b.space.Encode(cfg)
	r := lm.regions[lm.nearestRegion(s)]
	if err := lm.ensureFit(b, r); err != nil {
		return 0, 0, err
	}
	return r.model.Predict(b.encode(cfg))
}
